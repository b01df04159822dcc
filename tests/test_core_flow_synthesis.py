"""Tests for the agent-flow synthesis stage."""

import pytest

from repro.core import SynthesisOptions, synthesize_flows
from repro.maps import toy_warehouse
from repro.solver import SolveStatus
from repro.warehouse import Workload


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
def result(system, workload):
    return synthesize_flows(system, workload, horizon=600)


class TestSynthesisSuccess:
    def test_status_and_flow_set(self, result):
        assert result.succeeded
        assert result.status.has_solution
        assert result.flow_set is not None

    def test_cycle_time_matches_system(self, result, system):
        assert result.cycle_time == system.cycle_time()
        assert result.num_periods == 600 // system.cycle_time()
        assert result.flow_set.cycle_time == result.cycle_time

    def test_flow_set_conserves_and_respects_capacity(self, result):
        assert result.flow_set.check_conservation() == []
        assert result.flow_set.check_capacity() == []

    def test_deliveries_cover_demand_rate(self, result, workload):
        flow_set = result.flow_set
        # Aggregate drop-off rate integrated over the effective horizon must
        # cover the total demand.
        assert (
            flow_set.deliveries_per_period() * flow_set.effective_periods
            >= workload.total_units
        )

    def test_per_product_rates_cover_demand(self, result, workload):
        flow_set = result.flow_set
        for product in workload.requested_products():
            rate = sum(
                value for (_, p), value in flow_set.pickup_rates.items() if p == product
            )
            assert rate * flow_set.effective_periods >= workload.demand(product) - 1e-6

    def test_pickups_match_dropoffs(self, result):
        flow_set = result.flow_set
        assert flow_set.pickups_per_period() == flow_set.deliveries_per_period()

    def test_agents_equal_total_flow(self, result):
        flow_set = result.flow_set
        assert flow_set.num_agents == sum(flow_set.loaded_flows.values()) + sum(
            flow_set.empty_flows.values()
        )
        assert flow_set.num_agents > 0

    def test_timings_and_model_stats_recorded(self, result):
        assert result.build_seconds >= 0
        assert result.solve_seconds >= 0
        assert result.total_seconds == pytest.approx(
            result.build_seconds + result.solve_seconds
        )
        assert result.num_variables > 0
        assert result.num_constraints > 0

    def test_contracts_attached(self, result):
        assert result.traffic_contract is not None
        assert result.workload_contract is not None
        assert result.workload_contract.num_guarantees > 0


class TestSynthesisVariants:
    def test_feasibility_objective(self, system, workload):
        result = synthesize_flows(
            system, workload, horizon=600, options=SynthesisOptions(objective="none")
        )
        assert result.succeeded
        assert result.flow_set.check_conservation() == []

    def test_min_carrying_objective(self, system, workload):
        result = synthesize_flows(
            system,
            workload,
            horizon=600,
            options=SynthesisOptions(objective="min_carrying"),
        )
        assert result.succeeded

    def test_min_agents_uses_fewest_agents(self, system, workload):
        minimal = synthesize_flows(system, workload, horizon=600)
        free = synthesize_flows(
            system, workload, horizon=600, options=SynthesisOptions(objective="none")
        )
        assert minimal.flow_set.num_agents <= free.flow_set.num_agents

    def test_larger_cycle_time_factor(self, system, workload):
        result = synthesize_flows(
            system,
            workload,
            horizon=600,
            options=SynthesisOptions(cycle_time_factor=3),
        )
        assert result.cycle_time == system.cycle_time(3)
        assert result.succeeded

    def test_explicit_warmup(self, system, workload):
        result = synthesize_flows(
            system, workload, horizon=600, options=SynthesisOptions(warmup_periods=0)
        )
        assert result.succeeded
        assert result.flow_set.warmup_periods == 0


class TestSynthesisFailure:
    def test_impossible_workload_is_infeasible(self, system, designed):
        # Demand far beyond the traffic system's per-period capacity.
        workload = Workload.uniform(designed.warehouse.catalog, 100_000)
        result = synthesize_flows(system, workload, horizon=600)
        assert not result.succeeded
        assert result.status == SolveStatus.INFEASIBLE

    def test_horizon_shorter_than_cycle_period(self, system, workload):
        from repro.core.workload_contract import WorkloadContractError

        with pytest.raises(WorkloadContractError):
            synthesize_flows(system, workload, horizon=5)
