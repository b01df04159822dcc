"""Experiment E10 (ablation): formulation, objective choice and model size.

The paper solves the flow-synthesis constraints with Z3; we reduce them to a
MILP and solve it with HiGHS.  These ablations measure how much of the speed
comes from the formulation (the paper's per-product contract model against
the exact aggregate ``synthesize_flows`` solves, both on HiGHS), what the
objective choice costs (pure feasibility vs. minimizing the number of agents)
and how the model grows with the number of products.
"""

from __future__ import annotations

import time

import pytest

from repro.core import SynthesisOptions, synthesize_flows
from repro.maps import toy_warehouse
from repro.solver import solve_model
from repro.warehouse import Workload
from tests.reference_synthesis import contract_model

from .conftest import get_designed

OBJECTIVES = ["none", "min_agents", "min_carrying"]


@pytest.fixture(scope="module")
def toy():
    designed = toy_warehouse()
    workload = Workload.uniform(designed.warehouse.catalog, 8)
    return designed, workload


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_objective_ablation(benchmark, toy, objective):
    """Objective choice: feasibility vs. minimizing agents vs. loaded travel."""
    designed, workload = toy

    def run():
        return synthesize_flows(
            designed.traffic_system,
            workload,
            horizon=600,
            options=SynthesisOptions(objective=objective),
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.succeeded
    benchmark.extra_info["num_agents"] = result.flow_set.num_agents
    benchmark.extra_info["deliveries_per_period"] = result.flow_set.deliveries_per_period()


def test_min_agents_never_uses_more_than_feasibility(benchmark, toy):
    """Sanity check on the ablation's meaning: min_agents <= plain feasibility."""
    designed, workload = toy
    results = {}

    def run():
        results["free"] = synthesize_flows(
            designed.traffic_system, workload, horizon=600,
            options=SynthesisOptions(objective="none"),
        )
        results["minimal"] = synthesize_flows(
            designed.traffic_system, workload, horizon=600,
            options=SynthesisOptions(objective="min_agents"),
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["minimal"].flow_set.num_agents <= results["free"].flow_set.num_agents
    benchmark.extra_info["agents_feasibility"] = results["free"].flow_set.num_agents
    benchmark.extra_info["agents_min_agents"] = results["minimal"].flow_set.num_agents


def test_product_count_scaling(benchmark, designed_maps):
    """Model-size scaling with the number of products (the FC-2 effect).

    The paper's runtime grows markedly from 55 to 120 products; here we verify
    the same direction on the small presets: the 12-product map's synthesis
    model has more variables and takes at least as long as the 8-product one.
    """
    from .conftest import solve_instance

    small_a = get_designed(designed_maps, "fulfillment-1-small")   # 8 products
    small_b = get_designed(designed_maps, "fulfillment-2-small")   # 12 products

    results = {}

    def run():
        results["a"] = solve_instance(small_a, 24, 1500)
        results["b"] = solve_instance(small_b, 36, 1500)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    model_a = results["a"].synthesis
    model_b = results["b"].synthesis
    benchmark.extra_info["variables_8_products"] = model_a.num_variables
    benchmark.extra_info["variables_12_products"] = model_b.num_variables
    assert model_b.num_variables > model_a.num_variables


def test_formulation_ablation(benchmark, designed_maps):
    """The per-product contract model against its exact aggregate on fulfillment-2-small/60.

    Both go through ``solve_model``; the sizes are deterministic, the solve
    seconds are recorded, not gated.
    """
    designed = get_designed(designed_maps, "fulfillment-2-small")
    system = designed.traffic_system
    workload = Workload.uniform(designed.warehouse.catalog, 60)
    results = {}

    def run():
        model, _ = contract_model(system, workload, 1500)
        start = time.perf_counter()
        solved = solve_model(model)
        results["contract"] = (model, solved, time.perf_counter() - start)
        results["aggregate"] = synthesize_flows(system, workload, 1500)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    model, contract, contract_seconds = results["contract"]
    aggregate = results["aggregate"]
    benchmark.extra_info["contract"] = {
        "variables": model.num_variables,
        "constraints": model.num_constraints,
        "solve_seconds": contract_seconds,
        "agents": round(contract.objective),
    }
    benchmark.extra_info["aggregate"] = {
        "variables": aggregate.num_variables,
        "constraints": aggregate.num_constraints,
        "solve_seconds": aggregate.solve_seconds,
        "agents": aggregate.flow_set.num_agents,
    }
    assert aggregate.flow_set.num_agents == round(contract.objective)
    assert aggregate.num_variables < model.num_variables
    assert aggregate.num_constraints < model.num_constraints
