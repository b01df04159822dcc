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

The compile reads the pool through variable lists (a component's inlet and
outlet flows, a row's pickups, a product's drop-offs) and fills one
coefficient dict per contract or model row
(:func:`~repro.solver.expressions.add_terms`); the pool
reads UNITSAT once, from :meth:`~repro.traffic.system.TrafficSystem.units_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..solver.expressions import LinearExpr, Variable, add_terms
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
    #: UNITSAT read once for this problem: ``units[i][k]`` (see ``TrafficSystem.units_table``).
    units: List[List[int]] = field(repr=False)
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
    #: The pickup / drop-off rates indexed by row or queue (in product order)
    #: and by product (in component order).
    row_pickups: Dict[ComponentId, Dict[ProductId, Variable]] = field(
        default_factory=dict, repr=False
    )
    queue_dropoffs: Dict[ComponentId, Dict[ProductId, Variable]] = field(
        default_factory=dict, repr=False
    )
    product_pickups: Dict[ProductId, List[Variable]] = field(default_factory=dict, repr=False)
    product_dropoffs: Dict[ProductId, List[Variable]] = field(default_factory=dict, repr=False)

    @staticmethod
    def for_workload(system: TrafficSystem, workload: Workload) -> "FlowVariablePool":
        """Create the pool for a workload's demanded products."""
        products = workload.requested_products()
        pool = FlowVariablePool(system=system, products=products, units=system.units_table())
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
            stock = self.units[component.index]
            any_stock = False
            for product in self.products:
                if stock[product] > 0:
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
        for (index, product), var in self.pickup_vars.items():
            self.row_pickups.setdefault(index, {})[product] = var
            self.product_pickups.setdefault(product, []).append(var)
        for (index, product), var in self.dropoff_vars.items():
            self.queue_dropoffs.setdefault(index, {})[product] = var
            self.product_dropoffs.setdefault(product, []).append(var)

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

    # -- variable lists and coefficient dicts ---------------------------------------
    def inlet_flows(self, component: ComponentId, product: ProductId) -> List[Variable]:
        """``f[j, i, product]`` over the inlets ``j`` of ``i`` (``empty[j, i]`` for ρ0)."""
        inlets = self.system.inlets_of(component)
        if product == EMPTY_HANDED:
            return [self.empty_vars[(inlet, component)] for inlet in inlets]
        return [self.edge_vars[(inlet, component, product)] for inlet in inlets]

    def outlet_flows(self, component: ComponentId, product: ProductId) -> List[Variable]:
        """``f[i, j, product]`` over the outlets ``j`` of ``i`` (``empty[i, j]`` for ρ0)."""
        outlets = self.system.outlets_of(component)
        if product == EMPTY_HANDED:
            return [self.empty_vars[(component, outlet)] for outlet in outlets]
        return [self.edge_vars[(component, outlet, product)] for outlet in outlets]

    def total_inflow_coeffs(self, component: ComponentId) -> Dict[Variable, float]:
        """Coefficients of Σ over inlets of the aggregate (loaded + empty) agent flow."""
        coeffs: Dict[Variable, float] = {}
        for inlet in self.system.inlets_of(component):
            arc = (inlet, component)
            add_terms(coeffs, (self.loaded_vars[arc], self.empty_vars[arc]), 1.0)
        return coeffs

    def net_inflow_coeffs(
        self, arcs: Dict[EdgeKey, Variable], component: ComponentId
    ) -> Dict[Variable, float]:
        """Coefficients of Σ over inlets − Σ over outlets of one aggregate family
        (``loaded_vars`` / ``empty_vars``)."""
        inlets = self.system.inlets_of(component)
        outlets = self.system.outlets_of(component)
        coeffs = add_terms({}, (arcs[(inlet, component)] for inlet in inlets), 1.0)
        return add_terms(coeffs, (arcs[(component, outlet)] for outlet in outlets), -1.0)

    # -- objectives -----------------------------------------------------------------
    def total_agents(self) -> LinearExpr:
        """Σ of every aggregate edge flow — equals the number of agents in the plan."""
        return LinearExpr.sum(
            list(self.loaded_vars.values()) + list(self.empty_vars.values())
        )

    def total_loaded_flow(self) -> LinearExpr:
        """Σ of loaded aggregate flows (used by the 'min_carrying' objective)."""
        return LinearExpr.sum(self.loaded_vars.values())
