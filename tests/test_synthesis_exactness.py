"""The aggregate synthesis model is exact, checked instance by instance.

``synthesize_flows`` solves the aggregate of the paper's contract conjunction;
``reference_synthesis`` keeps the per-product model and the lift.  Two checks:

* every aggregate solution lifts to a per-product assignment that satisfies
  every constraint and variable bound of the paper's contracts, and the rows
  tying per-product rates to the aggregates;
* the aggregate's agent count is the per-product model's optimum: its lifted
  solution is a per-product solution with that many agents, and HiGHS proves
  that no per-product solution has fewer (a feasibility solve; over these
  instances it takes about 70% of the time re-optimizing would).
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_synthesis as reference

from repro.core import FlowVariablePool, SynthesisOptions, synthesize_flows
from repro.experiments.generator import mix_suite, scaling_suite, smoke_suite
from repro.maps import MAP_REGISTRY, FulfillmentLayout, generate_fulfillment_center, toy_warehouse
from repro.solver import SolveStatus, solve_model
from repro.warehouse import Workload

#: The nine small Table-I rows: (map preset, units, horizon).
SMALL_TABLE1 = [
    (map_name, units, 1500)
    for map_name, workloads in (
        ("sorting-center-small", (16, 32, 48)),
        ("fulfillment-1-small", (24, 36, 48)),
        ("fulfillment-2-small", (36, 48, 60)),
    )
    for units in workloads
]
SUITE_SPECS = {spec.label: spec for spec in smoke_suite(0) + mix_suite(0) + scaling_suite(0)}
TABLE1_IDS = [f"{map_name}-{units}" for map_name, units, _ in SMALL_TABLE1]


@pytest.fixture(scope="module")
def solved():
    """``(system, workload, horizon, synthesis result)`` per instance id and objective.

    Built lazily and shared, so the lift and the oracle checks solve each
    aggregate once.
    """
    instances, results = {}, {}

    def build(instance_id):
        if instance_id == "toy":
            designed = toy_warehouse()
            return designed.traffic_system, Workload.uniform(designed.warehouse.catalog, 8), 600
        if instance_id in SUITE_SPECS:
            spec = SUITE_SPECS[instance_id]
            designed, workload = spec.build()
            return designed.traffic_system, workload, spec.horizon
        map_name, units, horizon = SMALL_TABLE1[TABLE1_IDS.index(instance_id)]
        preset = MAP_REGISTRY[map_name]()
        designed = getattr(preset, "designed", preset)
        return designed.traffic_system, Workload.uniform(designed.warehouse.catalog, units), horizon

    def get(instance_id, objective="min_agents"):
        if instance_id not in instances:
            instances[instance_id] = build(instance_id)
        system, workload, horizon = instances[instance_id]
        key = (instance_id, objective)
        if key not in results:
            options = SynthesisOptions(objective=objective)
            results[key] = synthesize_flows(system, workload, horizon, options)
        return system, workload, horizon, results[key]

    return get


def assert_lift_satisfies_contracts(result, workload):
    """Every constraint, bound and integrality of the attached contracts, and
    the coupling rows of the per-product model, hold within 1e-6."""
    model = (result.traffic_contract & result.workload_contract).to_model()
    pool = FlowVariablePool.for_workload(result.flow_set.system, workload)
    model.add_constraints(reference.coupling_constraints(pool))
    lifted = reference.lift(result.flow_set, model.variables, workload.requested_products())
    assert model.check_assignment(lifted, tol=1e-6) == []


LIFT_CASES = (
    [("toy", objective) for objective in ("none", "min_agents", "min_carrying")]
    + [(row, objective) for row in TABLE1_IDS for objective in ("min_agents", "none")]
    + [(label, "min_agents") for label in SUITE_SPECS]
)


@pytest.mark.parametrize("instance_id, objective", LIFT_CASES)
def test_lift_satisfies_the_paper_contracts(solved, instance_id, objective):
    _, workload, _, result = solved(instance_id, objective)
    if instance_id == "smoke/infeasible-stock":
        assert not result.succeeded
    else:
        assert_lift_satisfies_contracts(result, workload)


@settings(max_examples=10, deadline=None)
# Under objective "none" this layout's loaded flow holds a circulation.
@example(num_slices=2, shelf_columns=4, num_stations=2, products=2, units=2, objective="none")
@given(
    num_slices=st.integers(min_value=1, max_value=3),
    shelf_columns=st.integers(min_value=3, max_value=5),
    num_stations=st.integers(min_value=1, max_value=2),
    products=st.integers(min_value=1, max_value=6),
    units=st.integers(min_value=2, max_value=24),
    objective=st.sampled_from(["none", "min_agents", "min_carrying"]),
)
def test_lift_on_small_layouts(num_slices, shelf_columns, num_stations, products, units, objective):
    layout = FulfillmentLayout(
        num_slices=num_slices,
        shelf_columns=shelf_columns,
        shelf_bands=1,
        shelf_depth=1,
        num_stations=num_stations,
        num_products=products,
        name="hypothesis-lift",
    )
    designed = generate_fulfillment_center(layout)
    workload = Workload.uniform(designed.warehouse.catalog, units)
    options = SynthesisOptions(objective=objective)
    result = synthesize_flows(designed.traffic_system, workload, 900, options)
    assume(result.succeeded)
    assert_lift_satisfies_contracts(result, workload)


@pytest.mark.parametrize("instance_id", ["toy"] + TABLE1_IDS + list(SUITE_SPECS))
def test_agents_equal_the_per_product_optimum(solved, instance_id):
    system, workload, horizon, result = solved(instance_id)
    feasibility = SynthesisOptions(objective="none")
    model, pool = reference.contract_model(system, workload, horizon, feasibility)
    if not result.succeeded:
        assert solve_model(model).status == SolveStatus.INFEASIBLE
        return
    agents = result.flow_set.num_agents
    lifted = reference.lift(result.flow_set, model.variables, workload.requested_products())
    assert model.check_assignment(lifted) == []
    assert pool.total_agents().evaluate(lifted) == agents
    model.add_constraint(pool.total_agents() <= agents - 1)
    assert solve_model(model).status == SolveStatus.INFEASIBLE
