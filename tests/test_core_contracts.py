"""Tests for flow variables, component contracts and the workload contract."""

import pytest

from repro.core import (
    FlowVariablePool,
    SynthesisOptions,
    component_contract,
    component_contracts,
    traffic_system_contract,
    workload_contract,
)
from repro.core.workload_contract import WorkloadContractError
from repro.maps import toy_warehouse
from repro.warehouse import EMPTY_HANDED, Workload


@pytest.fixture(scope="module")
def designed():
    return toy_warehouse()


@pytest.fixture(scope="module")
def system(designed):
    return designed.traffic_system


@pytest.fixture(scope="module")
def workload(designed):
    return Workload.uniform(designed.warehouse.catalog, 8)


@pytest.fixture(scope="module")
def pool(system, workload):
    return FlowVariablePool.for_workload(system, workload)


class TestFlowVariablePool:
    def test_edge_variables_cover_all_arcs(self, pool, system, workload):
        products = len(workload.requested_products())
        assert len(pool.edge_vars) == len(system.edges()) * products
        assert len(pool.loaded_vars) == len(system.edges())
        assert len(pool.empty_vars) == len(system.edges())

    def test_per_product_variables_are_continuous(self, pool):
        assert all(not var.integer for var in pool.edge_vars.values())
        assert all(not var.integer for var in pool.pickup_vars.values())
        assert all(not var.integer for var in pool.dropoff_vars.values())

    def test_aggregate_variables_are_integer(self, pool):
        assert all(var.integer for var in pool.loaded_vars.values())
        assert all(var.integer for var in pool.empty_vars.values())
        assert all(var.integer for var in pool.total_pickup_vars.values())
        assert all(var.integer for var in pool.total_dropoff_vars.values())

    def test_pickup_vars_only_where_stocked(self, pool, system):
        for (component_id, product) in pool.pickup_vars:
            assert system.units_at(component_id, product) > 0
            assert system.component(component_id).is_shelving_row

    def test_dropoff_vars_only_at_station_queues(self, pool, system):
        for (component_id, _) in pool.dropoff_vars:
            assert system.component(component_id).is_station_queue

    def test_bounds_match_capacity(self, pool, system):
        for (source, target), var in pool.loaded_vars.items():
            assert var.ub == system.component(target).capacity

    def test_inlet_and_outlet_flows(self, pool, system):
        component = system.components[0]
        inflow = pool.inlet_flows(component.index, EMPTY_HANDED)
        assert len(inflow) == len(system.inlets_of(component.index))
        outflow = pool.outlet_flows(component.index, EMPTY_HANDED)
        assert len(outflow) == len(system.outlets_of(component.index))

    def test_total_agents_counts_every_edge(self, pool, system):
        assert len(pool.total_agents().variables()) == 2 * len(system.edges())


class TestComponentContracts:
    def test_capacity_assumption_present(self, pool, system):
        contract = component_contract(pool, system.components[0], num_periods=10)
        assert contract.num_assumptions == 1
        assert "capacity" in contract.assumptions[0].name

    def test_conservation_guarantees_per_product(self, pool, system, workload):
        contract = component_contract(pool, system.components[0], num_periods=10)
        conservation = [g for g in contract.guarantees if g.name.startswith("conservation")]
        # one per demanded product plus one for the empty-handed commodity
        assert len(conservation) == len(workload.requested_products()) + 1

    def test_shelving_row_has_pickup_guarantees(self, pool, system):
        shelving = system.shelving_rows()[0]
        contract = component_contract(pool, shelving, num_periods=10)
        names = [g.name for g in contract.guarantees]
        assert any(name.startswith("pickup-empty-agents") for name in names)

    def test_station_queue_has_dropoff_guarantees(self, pool, system):
        queue = system.station_queues()[0]
        contract = component_contract(pool, queue, num_periods=10)
        names = [g.name for g in contract.guarantees]
        assert any(name.startswith("dropoff-bound") for name in names)

    def test_transport_has_no_pickup_or_dropoff(self, pool, system):
        transports = system.transports()
        assert transports, "toy map should have transports"
        contract = component_contract(pool, transports[0], num_periods=10)
        names = [g.name for g in contract.guarantees]
        assert not any("pickup" in name or "dropoff-bound" in name for name in names)

    def test_traffic_system_contract_composes_all(self, pool, system):
        composed = traffic_system_contract(pool, num_periods=10)
        individual = component_contracts(pool, num_periods=10)
        assert composed.num_guarantees == sum(c.num_guarantees for c in individual)
        assert composed.num_assumptions == sum(c.num_assumptions for c in individual)


class TestWorkloadContract:
    def test_one_guarantee_per_requested_product(self, pool, workload):
        contract = workload_contract(pool, workload, num_periods=20, warmup_periods=1)
        assert contract.num_guarantees == len(workload.requested_products())
        assert contract.num_assumptions == 0

    def test_rates_scale_with_periods(self, pool, designed):
        workload = Workload.from_mapping(designed.warehouse.catalog, {1: 30})
        few = workload_contract(pool, workload, num_periods=10, warmup_periods=0)
        many = workload_contract(pool, workload, num_periods=30, warmup_periods=0)
        # The required per-period rate is demand / periods; the constraint with
        # fewer periods is strictly tighter, checked via its constant term.
        assert few.guarantees[0].expr.constant < many.guarantees[0].expr.constant

    def test_zero_periods_rejected(self, pool, workload):
        with pytest.raises(WorkloadContractError):
            workload_contract(pool, workload, num_periods=0)

    def test_excessive_warmup_rejected(self, pool, workload):
        with pytest.raises(WorkloadContractError):
            workload_contract(pool, workload, num_periods=5, warmup_periods=5)


class TestSynthesisOptions:
    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            SynthesisOptions(objective="maximize-profit")

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            SynthesisOptions(cycle_time_factor=1)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            SynthesisOptions(warmup_periods=-1)

    def test_auto_warmup_resolution(self, system):
        options = SynthesisOptions()
        warmup = options.resolve_warmup(system, num_periods=40)
        assert 1 <= warmup <= 40 // 3
        explicit = SynthesisOptions(warmup_periods=3)
        assert explicit.resolve_warmup(system, num_periods=40) == 3
