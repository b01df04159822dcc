"""Flow variables shared by the component and workload contracts.

An *agent flow* ``f[i, j, k]`` is the number of agents that move from
component ``Ci`` to component ``Cj`` carrying product ``ρk`` in every cycle
period (``k = 0`` means empty-handed); ``f_in[i, k]`` / ``f_out[i, k]`` are the
per-period pickups at a shelving row / drop-offs at a station queue.  The
paper's contracts constrain these quantities with linear arithmetic over the
reals, and that is how they are modelled here: **per-product flows are
continuous variables**.  A product whose demand is far below one unit per
cycle period is then served at a fractional rate — in the realized plan this
becomes time multiplexing (an agent cycle carries different products in
different periods).

Discrete agent cycles, however, need integer *agent-slot* counts, so the pool
also holds the integer aggregates:

* ``loaded[i, j]`` — loaded agents per period on the arc, all products;
* ``empty[i, j]``  — empty-handed agents per period on the arc; it *is* the
  contracts' ``f[i, j, 0]`` (:meth:`FlowVariablePool.edge` returns it);
* ``pickups[i]`` / ``dropoffs[i]`` — pickups at a row / drop-offs at a queue.

:func:`repro.core.flow_synthesis.synthesize_flows` solves the exact aggregate
of the contracts over ``loaded``, ``empty``, ``pickups``, ``dropoffs`` and
``f_in``; the per-product edge and drop-off rates appear only in the compiled
contracts, which the runtime monitor checks against the trace.  DESIGN.md §3
gives the projection and lift that make the two models share their optimum.

Variables are created only where they can be non-zero (per-product variables
only for demanded products, pickups only at shelving rows stocking the
product, drop-offs only at station queues), which keeps the 120-product
contracts compact without changing their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..solver.expressions import LinearExpr, Variable
from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.products import EMPTY_HANDED, ProductId
from ..warehouse.workload import Workload

EdgeKey = Tuple[ComponentId, ComponentId]
ProductEdgeKey = Tuple[ComponentId, ComponentId, ProductId]
NodeKey = Tuple[ComponentId, ProductId]


@dataclass
class FlowVariablePool:
    """Registry of the flow variables of one synthesis problem."""

    system: TrafficSystem
    products: Tuple[ProductId, ...]
    #: Per-product, per-edge loaded flow rates ``f[i, j, k]``, ``k ≥ 1`` (continuous).
    edge_vars: Dict[ProductEdgeKey, Variable] = field(default_factory=dict)
    #: Per-product pickup / drop-off rates (continuous).
    pickup_vars: Dict[NodeKey, Variable] = field(default_factory=dict)
    dropoff_vars: Dict[NodeKey, Variable] = field(default_factory=dict)
    #: Integer aggregates (the agent slots the realization will use).
    loaded_vars: Dict[EdgeKey, Variable] = field(default_factory=dict)
    empty_vars: Dict[EdgeKey, Variable] = field(default_factory=dict)
    total_pickup_vars: Dict[ComponentId, Variable] = field(default_factory=dict)
    total_dropoff_vars: Dict[ComponentId, Variable] = field(default_factory=dict)

    @staticmethod
    def for_workload(system: TrafficSystem, workload: Workload) -> "FlowVariablePool":
        """Create the pool for a workload's demanded products."""
        products = workload.requested_products()
        pool = FlowVariablePool(system=system, products=products)
        pool._populate()
        return pool

    # -- population -----------------------------------------------------------
    def _populate(self) -> None:
        for source, target in self.system.edges():
            capacity = self.system.component(target).capacity
            for product in self.products:
                self.edge_vars[(source, target, product)] = Variable(
                    name=f"f[{source},{target},{product}]",
                    lb=0,
                    ub=capacity,
                    integer=False,
                )
            self.loaded_vars[(source, target)] = Variable(
                name=f"loaded[{source},{target}]", lb=0, ub=capacity, integer=True
            )
            self.empty_vars[(source, target)] = Variable(
                name=f"empty[{source},{target}]", lb=0, ub=capacity, integer=True
            )
        for component in self.system.shelving_rows():
            any_stock = False
            for product in self.products:
                if self.system.units_at(component.index, product) > 0:
                    any_stock = True
                    self.pickup_vars[(component.index, product)] = Variable(
                        name=f"fin[{component.index},{product}]",
                        lb=0,
                        ub=component.capacity,
                        integer=False,
                    )
            if any_stock:
                self.total_pickup_vars[component.index] = Variable(
                    name=f"pickups[{component.index}]",
                    lb=0,
                    ub=component.capacity,
                    integer=True,
                )
        for component in self.system.station_queues():
            for product in self.products:
                self.dropoff_vars[(component.index, product)] = Variable(
                    name=f"fout[{component.index},{product}]",
                    lb=0,
                    ub=component.capacity,
                    integer=False,
                )
            self.total_dropoff_vars[component.index] = Variable(
                name=f"dropoffs[{component.index}]",
                lb=0,
                ub=component.capacity,
                integer=True,
            )

    # -- variable access --------------------------------------------------------
    def edge(self, source: ComponentId, target: ComponentId, product: ProductId) -> Optional[Variable]:
        """``f[source, target, product]``; the empty-handed flow is ``empty[source, target]``."""
        if product == EMPTY_HANDED:
            return self.empty(source, target)
        return self.edge_vars.get((source, target, product))

    def pickup(self, component: ComponentId, product: ProductId) -> Optional[Variable]:
        return self.pickup_vars.get((component, product))

    def dropoff(self, component: ComponentId, product: ProductId) -> Optional[Variable]:
        return self.dropoff_vars.get((component, product))

    def loaded(self, source: ComponentId, target: ComponentId) -> Optional[Variable]:
        return self.loaded_vars.get((source, target))

    def empty(self, source: ComponentId, target: ComponentId) -> Optional[Variable]:
        return self.empty_vars.get((source, target))

    def total_pickup(self, component: ComponentId) -> Optional[Variable]:
        return self.total_pickup_vars.get(component)

    def total_dropoff(self, component: ComponentId) -> Optional[Variable]:
        return self.total_dropoff_vars.get(component)

    # -- expression builders ------------------------------------------------------
    def inflow(self, component: ComponentId, product: ProductId) -> LinearExpr:
        """Σ over inlets of f[j, i, product]."""
        terms = []
        for inlet in self.system.inlets_of(component):
            var = self.edge(inlet, component, product)
            if var is not None:
                terms.append(var)
        return LinearExpr.sum(terms)

    def outflow(self, component: ComponentId, product: ProductId) -> LinearExpr:
        """Σ over outlets of f[i, j, product]."""
        terms = []
        for outlet in self.system.outlets_of(component):
            var = self.edge(component, outlet, product)
            if var is not None:
                terms.append(var)
        return LinearExpr.sum(terms)

    def total_inflow(self, component: ComponentId) -> LinearExpr:
        """Σ over inlets of the aggregate (loaded + empty) agent flow."""
        terms = []
        for inlet in self.system.inlets_of(component):
            loaded = self.loaded(inlet, component)
            empty = self.empty(inlet, component)
            if loaded is not None:
                terms.append(loaded)
            if empty is not None:
                terms.append(empty)
        return LinearExpr.sum(terms)

    def net_inflow(self, arcs: Dict[EdgeKey, Variable], component: ComponentId) -> LinearExpr:
        """Σ over inlets − Σ over outlets of one aggregate family (``loaded_vars`` / ``empty_vars``)."""
        return LinearExpr.sum(
            [arcs[(inlet, component)] for inlet in self.system.inlets_of(component)]
            + [-1 * arcs[(component, outlet)] for outlet in self.system.outlets_of(component)]
        )

    def total_pickups_expr(self, component: ComponentId) -> LinearExpr:
        terms = [var for (comp, _), var in self.pickup_vars.items() if comp == component]
        return LinearExpr.sum(terms)

    def total_dropoffs_expr(self, component: ComponentId) -> LinearExpr:
        terms = [var for (comp, _), var in self.dropoff_vars.items() if comp == component]
        return LinearExpr.sum(terms)

    def total_row_pickups(self, product: ProductId) -> LinearExpr:
        """Σ over all shelving rows of f_in[i, product]."""
        terms = [var for (_, prod), var in self.pickup_vars.items() if prod == product]
        return LinearExpr.sum(terms)

    def total_station_dropoffs(self, product: ProductId) -> LinearExpr:
        """Σ over all station queues of f_out[i, product]."""
        terms = [var for (_, prod), var in self.dropoff_vars.items() if prod == product]
        return LinearExpr.sum(terms)

    def total_agents(self) -> LinearExpr:
        """Σ of every aggregate edge flow — equals the number of agents in the plan."""
        return LinearExpr.sum(
            list(self.loaded_vars.values()) + list(self.empty_vars.values())
        )

    def total_loaded_flow(self) -> LinearExpr:
        """Σ of loaded aggregate flows (used by the 'min_carrying' objective)."""
        return LinearExpr.sum(self.loaded_vars.values())
