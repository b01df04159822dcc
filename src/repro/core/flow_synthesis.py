"""Agent-flow synthesis (Sec. IV-D): contracts → MILP → agent flow set.

The synthesis stage compiles the traffic-system contract (composition of all
component contracts) and the workload contract, then hands HiGHS, through
:func:`repro.solver.solve_model` (the paper uses Z3 over linear real
arithmetic), the *exact aggregate* of their conjunction: integer loaded and
empty-handed arc flows, integer pickups and drop-offs, and continuous
per-row product mixes ``f_in``.  The per-product edge and drop-off rates are
projected out; DESIGN.md §3 shows that every aggregate
solution lifts back to a per-product one with the same objective value, so
both models share their optimum.  The compiled contracts are still attached to
the result: the runtime monitor checks them against the simulated trace.  The
satisfying assignment is packaged as an :class:`AgentFlowSet`, the object the
decomposition stage (Sec. IV-E) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..contracts import AGContract
from ..deadline import ScenarioTimeout, current_deadline
from ..obs import stage
from ..solver import SolveStatus, solve_model
from ..solver.expressions import EQ, GE, LE, add_terms, linear_row
from ..solver.model import ConstraintModel
from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.products import EMPTY_HANDED, ProductId
from ..warehouse.workload import Workload
from .component_contracts import traffic_system_contract
from .flow_variables import EdgeKey, FlowVariablePool, NodeKey
from .workload_contract import workload_contract

#: Objectives supported by the synthesizer.
OBJECTIVES = ("none", "min_agents", "min_carrying")


class FlowSynthesisError(RuntimeError):
    """Raised when no agent flow set satisfying the contracts exists."""


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the flow-synthesis stage.

    ``cycle_time_factor`` scales the cycle time (``tc = factor * m``); the
    paper's Property 4.1 uses factor 2.  ``warmup_periods`` reserves periods
    for pipeline warm-up (see :mod:`repro.core.workload_contract`); ``None``
    (the default) sizes the margin automatically from the traffic system —
    one period per hop of the longest shelving-row → station-queue route,
    which covers both the start-up transient and the units still in flight at
    the end of the horizon.  Set it to 0 to recover the paper's formula
    verbatim.
    """

    objective: str = "min_agents"
    cycle_time_factor: int = 2
    warmup_periods: Optional[int] = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.cycle_time_factor < 2:
            raise ValueError("cycle_time_factor must be at least 2 (Property 4.1)")
        if self.warmup_periods is not None and self.warmup_periods < 0:
            raise ValueError("warmup_periods must be non-negative")

    def resolve_warmup(self, system: TrafficSystem, num_periods: int) -> int:
        """The warm-up margin actually used for a given traffic system."""
        if self.warmup_periods is not None:
            return self.warmup_periods
        hops = system.max_shelving_to_station_hops() + 1
        return max(1, min(hops, max(1, num_periods // 3)))


@dataclass
class AgentFlowSet:
    """A satisfying per-cycle-period flow assignment.

    ``loaded_flows[(i, j)]`` / ``empty_flows[(i, j)]`` are the integer numbers
    of loaded / empty-handed agents moving from component ``i`` to ``j`` every
    cycle period; ``pickups[i]`` / ``dropoffs[i]`` are the integer per-period
    pickups and drop-offs; ``pickup_rates[(i, k)]`` are the continuous
    per-product pickup rates the workload and stock bounds constrain (used to
    allocate products to delivery slots).  Zero entries are omitted.
    """

    system: TrafficSystem
    cycle_time: int
    num_periods: int
    warmup_periods: int = 0
    loaded_flows: Dict[EdgeKey, int] = field(default_factory=dict)
    empty_flows: Dict[EdgeKey, int] = field(default_factory=dict)
    pickups: Dict[ComponentId, int] = field(default_factory=dict)
    dropoffs: Dict[ComponentId, int] = field(default_factory=dict)
    pickup_rates: Dict[NodeKey, float] = field(default_factory=dict)

    # -- aggregate queries ------------------------------------------------------
    @property
    def effective_periods(self) -> int:
        return max(1, self.num_periods - self.warmup_periods)

    @property
    def num_agents(self) -> int:
        """Each unit of aggregate edge flow is one agent slot (one agent
        advances one component per period), so the team size equals the total
        aggregate flow."""
        return sum(self.loaded_flows.values()) + sum(self.empty_flows.values())

    def deliveries_per_period(self) -> int:
        return sum(self.dropoffs.values())

    def pickups_per_period(self) -> int:
        return sum(self.pickups.values())

    def expected_deliveries(self) -> int:
        return self.deliveries_per_period() * self.num_periods

    def loaded_inflow_of(self, component: ComponentId) -> int:
        return sum(v for (_, dst), v in self.loaded_flows.items() if dst == component)

    def loaded_outflow_of(self, component: ComponentId) -> int:
        return sum(v for (src, _), v in self.loaded_flows.items() if src == component)

    def empty_inflow_of(self, component: ComponentId) -> int:
        return sum(v for (_, dst), v in self.empty_flows.items() if dst == component)

    def empty_outflow_of(self, component: ComponentId) -> int:
        return sum(v for (src, _), v in self.empty_flows.items() if src == component)

    def total_inflow_of(self, component: ComponentId) -> int:
        return self.loaded_inflow_of(component) + self.empty_inflow_of(component)

    def product_rate(self, component: ComponentId, product: ProductId) -> float:
        return self.pickup_rates.get((component, product), 0.0)

    # -- validation ----------------------------------------------------------------
    def check_conservation(self) -> List[str]:
        """Return human-readable descriptions of any aggregate conservation violations."""
        problems: List[str] = []
        for component in self.system.components:
            index = component.index
            picked = self.pickups.get(index, 0)
            dropped = self.dropoffs.get(index, 0)
            loaded_balance = (
                self.loaded_inflow_of(index) + picked - dropped - self.loaded_outflow_of(index)
            )
            if loaded_balance != 0:
                problems.append(
                    f"loaded flow unbalanced at {component.name}: {loaded_balance:+d}"
                )
            empty_balance = (
                self.empty_inflow_of(index) - picked + dropped - self.empty_outflow_of(index)
            )
            if empty_balance != 0:
                problems.append(
                    f"empty-handed flow unbalanced at {component.name}: {empty_balance:+d}"
                )
        return problems

    def check_capacity(self) -> List[str]:
        problems: List[str] = []
        for component in self.system.components:
            inflow = self.total_inflow_of(component.index)
            if inflow > component.capacity:
                problems.append(
                    f"{component.name}: {inflow} agents per period exceeds capacity "
                    f"⌊{component.length}/2⌋ = {component.capacity}"
                )
        return problems

    def summary(self) -> str:
        return (
            f"agent flow set: {self.num_agents} agents, "
            f"{self.deliveries_per_period()} deliveries/period, "
            f"tc={self.cycle_time}, {self.num_periods} periods"
        )


@dataclass
class FlowSynthesisResult:
    """Everything the pipeline needs to know about a synthesis run."""

    status: SolveStatus
    flow_set: Optional[AgentFlowSet]
    cycle_time: int
    num_periods: int
    #: Wall times of the ``solver.synthesis.build`` and ``.solve`` stages.
    build_seconds: float
    solve_seconds: float
    num_variables: int
    num_constraints: int
    objective_value: Optional[float] = None
    message: str = ""
    #: Branch-and-bound nodes of the HiGHS solve (0 when it did not run).
    nodes: int = 0
    traffic_contract: Optional[AGContract] = None
    workload_contract: Optional[AGContract] = None

    @property
    def succeeded(self) -> bool:
        return self.flow_set is not None

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.solve_seconds


def synthesize_flows(
    system: TrafficSystem,
    workload: Workload,
    horizon: int,
    options: Optional[SynthesisOptions] = None,
) -> FlowSynthesisResult:
    """Synthesize an agent flow set servicing ``workload`` within ``horizon`` steps.

    This is the paper's Fig. 3 flow: compile component contracts, compose them
    into the traffic-system contract, conjoin with the workload contract, and
    search for a satisfying assignment — here of the conjunction's exact
    aggregate, which has the same optimum.
    """
    options = options or SynthesisOptions()
    timings: Dict[str, float] = {}
    with stage(timings, "build", "solver.synthesis.build"):
        cycle_time = system.cycle_time(options.cycle_time_factor)
        num_periods = horizon // cycle_time
        warmup_periods = options.resolve_warmup(system, num_periods)
        pool = FlowVariablePool.for_workload(system, workload)
        system_contract = traffic_system_contract(pool, num_periods)
        demand_contract = workload_contract(
            pool, workload, num_periods, warmup_periods=warmup_periods
        )
        model = _build_model(pool, workload, num_periods, warmup_periods, options.objective)

    deadline = current_deadline()
    with stage(timings, "solve", "solver.synthesis.solve"):
        result = solve_model(
            model, time_limit=None if deadline is None else deadline.remaining()
        )
    if deadline is not None and result.status in (SolveStatus.FEASIBLE, SolveStatus.LIMIT):
        # HiGHS stops short of a proof only at its time limit: the run's.
        raise ScenarioTimeout(deadline.seconds)

    flow_set = None
    if result.status.has_solution:
        flow_set = _extract_flow_set(
            pool, result.values, cycle_time, num_periods, warmup_periods
        )
    return FlowSynthesisResult(
        status=result.status,
        flow_set=flow_set,
        cycle_time=cycle_time,
        num_periods=num_periods,
        build_seconds=timings["build"],
        solve_seconds=timings["solve"],
        num_variables=model.num_variables,
        num_constraints=model.num_constraints,
        objective_value=result.objective,
        message=result.message,
        nodes=result.nodes,
        traffic_contract=system_contract,
        workload_contract=demand_contract,
    )


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _build_model(
    pool: FlowVariablePool,
    workload: Workload,
    num_periods: int,
    warmup_periods: int,
    objective: str,
) -> ConstraintModel:
    """The exact aggregate of the traffic-system ∧ workload contract conjunction.

    Per component: the capacity assumption, loaded and empty-handed flow
    conservation, at most one pickup per entering empty-handed agent, and a
    row's pickups split into per-product rates bounded by its stock; per
    product, the workload guarantee stated on the pickups (summing the
    per-product conservation over all components equates a product's pickups
    with its station drop-offs).
    """
    model = ConstraintModel(name="agent-flow-synthesis")
    # Column order steers HiGHS's branching; integers first solved the
    # paper-scale Table-I rows fastest.
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
            linear_row(
                pool.total_inflow_coeffs(component.index),
                LE,
                component.capacity,
                f"capacity[{component.name}]",
            )
        )
    periods = max(1, num_periods)
    for component in system.components:
        index, name = component.index, component.name
        loaded = pool.net_inflow_coeffs(pool.loaded_vars, index)
        empty = pool.net_inflow_coeffs(pool.empty_vars, index)
        picked = pool.total_pickup(index)
        if picked is not None:
            rates = pool.row_pickups[index]
            stock = pool.units[index]
            for product, rate in rates.items():
                limit = stock[product] / periods
                model.add_constraint(
                    linear_row({rate: 1.0}, LE, limit, f"pickup-stock[{name},{product}]")
                )
            coeffs = add_terms({picked: 1.0}, pool.inlet_flows(index, EMPTY_HANDED), -1.0)
            model.add_constraint(linear_row(coeffs, LE, 0.0, f"pickup-empty-agents[{name}]"))
            coeffs = add_terms(dict.fromkeys(rates.values(), 1.0), (picked,), -1.0)
            model.add_constraint(linear_row(coeffs, EQ, 0.0, f"pickup-mix[{name}]"))
            add_terms(loaded, (picked,), 1.0)
            add_terms(empty, (picked,), -1.0)
        dropped = pool.total_dropoff(index)
        if dropped is not None:
            add_terms(loaded, (dropped,), -1.0)
            add_terms(empty, (dropped,), 1.0)
        model.add_constraint(linear_row(loaded, EQ, 0.0, f"conservation[{name},loaded]"))
        model.add_constraint(linear_row(empty, EQ, 0.0, f"conservation[{name},empty]"))
    effective = num_periods - warmup_periods
    for product in workload.requested_products():
        model.add_constraint(
            linear_row(
                add_terms({}, pool.product_pickups.get(product, ()), 1.0),
                GE,
                workload.demand(product) / effective,
                f"workload[{product}]",
            )
        )
    for row in _rounding_cuts(pool, workload, effective):
        model.add_constraint(row)
    if objective == "min_agents":
        model.set_objective(pool.total_agents(), sense="min")
    elif objective == "min_carrying":
        model.set_objective(pool.total_loaded_flow(), sense="min")
    return model


def _rounding_cuts(pool: FlowVariablePool, workload: Workload, effective: int):
    """Chvátal–Gomory rounding cuts ``Σ_{r∈R_k} pickups[r] ≥ ⌈w_k / effective⌉``.

    ``R_k`` is the set of rows stocking product ``k``.  ``pickup-mix`` and
    ``fin ≥ 0`` give ``Σ_{R_k} pickups ≥ d_k`` and the pickups are integers,
    so no integer solution is cut off (DESIGN.md §3).  The rows are emitted
    only when ``⌈K/m⌉ > Σ_k d_k`` — ``K`` stocked requested products, at most
    ``m`` of them in one row — i.e. when every integer plan must pick up at
    more rows than the LP relaxation pays for; elsewhere they only slow HiGHS.
    """
    rows_of: Dict[ProductId, List] = {}
    for index, rates in pool.row_pickups.items():
        for product in rates:
            rows_of.setdefault(product, []).append(pool.total_pickup_vars[index])
    if not rows_of:
        return []
    widest = max(len(rates) for rates in pool.row_pickups.values())
    requested = workload.requested_products()
    total = sum(workload.demand(product) for product in requested)
    if -(-len(rows_of) // widest) * effective <= total:
        return []
    return [
        linear_row(
            dict.fromkeys(rows_of.get(product, ()), 1.0),
            GE,
            -(-workload.demand(product) // effective),
            f"pickup-rounding[{product}]",
        )
        for product in requested
    ]


def _extract_flow_set(
    pool: FlowVariablePool,
    values: Dict,
    cycle_time: int,
    num_periods: int,
    warmup_periods: int,
) -> AgentFlowSet:
    def int_of(var) -> int:
        return int(round(values.get(var, 0.0)))

    def float_of(var) -> float:
        return float(values.get(var, 0.0))

    loaded = {key: int_of(var) for key, var in pool.loaded_vars.items() if int_of(var)}
    empty = {key: int_of(var) for key, var in pool.empty_vars.items() if int_of(var)}
    pickups = {
        key: int_of(var) for key, var in pool.total_pickup_vars.items() if int_of(var)
    }
    dropoffs = {
        key: int_of(var) for key, var in pool.total_dropoff_vars.items() if int_of(var)
    }
    pickup_rates = {
        key: float_of(var)
        for key, var in pool.pickup_vars.items()
        if float_of(var) > 1e-9
    }
    return AgentFlowSet(
        system=pool.system,
        cycle_time=cycle_time,
        num_periods=num_periods,
        warmup_periods=warmup_periods,
        loaded_flows=loaded,
        empty_flows=empty,
        pickups=pickups,
        dropoffs=dropoffs,
        pickup_rates=pickup_rates,
    )
