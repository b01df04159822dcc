"""The paper's per-product flow-synthesis model and the lift, kept as oracles.

:func:`repro.core.synthesize_flows` solves the exact aggregate of the
traffic-system ∧ workload contract conjunction.  This module keeps the model
it replaced and the construction that proves the aggregate exact, instance by
instance:

* :func:`contract_model` is the per-product model: every flow variable,
  every contract constraint, and the rows tying the continuous per-product
  rates to the integer aggregates;
* :func:`lift` turns an aggregate flow set into a per-product assignment of
  every contract variable: it decomposes the loaded flow into row→queue paths
  and splits each path by its row's product mix.

``tests/test_synthesis_exactness.py`` checks that every lifted assignment
satisfies the contracts and that both models share their optimum; E10's
formulation ablation times the two models against each other.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import (
    AgentFlowSet,
    FlowVariablePool,
    SynthesisOptions,
    extract_carrying_paths,
    traffic_system_contract,
    workload_contract,
)
from repro.solver.expressions import LinearConstraint, LinearExpr, Variable
from repro.solver.model import ConstraintModel
from repro.traffic.system import TrafficSystem
from repro.warehouse import Workload
from repro.warehouse.products import ProductId


def coupling_constraints(pool: FlowVariablePool) -> List[LinearConstraint]:
    """Continuous per-product rates sum to the integer aggregates."""
    constraints = []
    for (source, target), loaded in pool.loaded_vars.items():
        product_sum = LinearExpr.sum(
            pool.edge(source, target, product) for product in pool.products
        )
        constraints.append(
            (product_sum - loaded == 0).named(f"couple-loaded[{source},{target}]")
        )
    for component, total in pool.total_pickup_vars.items():
        constraints.append(
            (LinearExpr.sum(pool.row_pickups[component].values()) - total == 0).named(
                f"couple-pickups[{component}]"
            )
        )
    for component, total in pool.total_dropoff_vars.items():
        constraints.append(
            (LinearExpr.sum(pool.queue_dropoffs[component].values()) - total == 0).named(
                f"couple-dropoffs[{component}]"
            )
        )
    return constraints


def contract_model(
    system: TrafficSystem,
    workload: Workload,
    horizon: int,
    options: Optional[SynthesisOptions] = None,
) -> Tuple[ConstraintModel, FlowVariablePool]:
    """The per-product model: the contract conjunction plus the coupling rows.

    The contracts are compiled as ``synthesize_flows`` compiles them.
    """
    options = options or SynthesisOptions()
    num_periods = horizon // system.cycle_time(options.cycle_time_factor)
    warmup_periods = options.resolve_warmup(system, num_periods)
    pool = FlowVariablePool.for_workload(system, workload)
    conjunction = traffic_system_contract(pool, num_periods) & workload_contract(
        pool, workload, num_periods, warmup_periods=warmup_periods
    )
    model = ConstraintModel(name="contract-flow-synthesis")
    for family in (
        pool.edge_vars,
        pool.pickup_vars,
        pool.dropoff_vars,
        pool.loaded_vars,
        pool.empty_vars,
        pool.total_pickup_vars,
        pool.total_dropoff_vars,
    ):
        for variable in family.values():
            model.register(variable)
    model.add_constraints(conjunction.all_constraints())
    model.add_constraints(coupling_constraints(pool))
    if options.objective == "min_agents":
        model.set_objective(pool.total_agents(), sense="min")
    elif options.objective == "min_carrying":
        model.set_objective(pool.total_loaded_flow(), sense="min")
    return model, pool


def lift(
    flow_set: AgentFlowSet, variables: Iterable[Variable], products: Sequence[ProductId]
) -> Dict[Variable, float]:
    """A per-product assignment of ``variables`` (a contract's or a model's).

    Every station queue accepts every product, so each unit row→queue path of
    the loaded flow can carry its row's pickup mix ``fin[r, k] / pickups[r]``;
    summed over paths this yields the per-product edge flows and drop-offs.
    The loaded flow path extraction leaves over is a circulation (possible
    when nothing is minimized), and any one product can carry it.
    """
    rates: Dict[str, float] = defaultdict(float)
    for (source, target), count in flow_set.loaded_flows.items():
        rates[f"loaded[{source},{target}]"] = count
    for (source, target), count in flow_set.empty_flows.items():
        rates[f"empty[{source},{target}]"] = count
    for row, count in flow_set.pickups.items():
        rates[f"pickups[{row}]"] = count
    for queue, count in flow_set.dropoffs.items():
        rates[f"dropoffs[{queue}]"] = count
    for (row, product), rate in flow_set.pickup_rates.items():
        rates[f"fin[{row},{product}]"] = rate

    leftover = dict(flow_set.loaded_flows)
    for path in extract_carrying_paths(flow_set):
        arcs = list(zip(path.components, path.components[1:]))
        for arc in arcs:
            leftover[arc] -= 1
        for product in products:
            share = flow_set.product_rate(path.start, product) / flow_set.pickups[path.start]
            for source, target in arcs:
                rates[f"f[{source},{target},{product}]"] += share
            rates[f"fout[{path.end},{product}]"] += share
    for (source, target), count in leftover.items():
        rates[f"f[{source},{target},{products[0]}]"] += count
    return {variable: rates[variable.name] for variable in variables}
