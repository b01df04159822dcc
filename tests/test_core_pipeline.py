"""End-to-end integration tests for the WSP solver pipeline."""

import pytest

from repro.core import (
    FlowSynthesisError,
    RealizationOptions,
    SolverOptions,
    SynthesisOptions,
    WSPSolver,
    solve_wsp,
)
from repro.maps import (
    FulfillmentLayout,
    generate_fulfillment_center,
    sorting_center_small,
    toy_warehouse,
)
from repro.warehouse import PlanValidator, Workload, WSPInstance


@pytest.fixture(scope="module")
def designed():
    return toy_warehouse()


@pytest.fixture(scope="module")
def solution(designed):
    workload = Workload.uniform(designed.warehouse.catalog, 8)
    return WSPSolver(designed.traffic_system).solve(workload, horizon=600)


class TestEndToEnd:
    def test_solution_succeeds(self, solution):
        assert solution.succeeded
        assert solution.plan is not None
        assert solution.num_agents > 0

    def test_plan_is_feasible_and_services_workload(self, solution):
        assert solution.plan_is_feasible
        assert solution.services_workload

    def test_all_stages_produced_artifacts(self, solution):
        assert solution.flow_set is not None
        assert solution.cycle_set is not None
        assert solution.schedule is not None
        assert solution.realization is not None
        assert solution.plan_report is not None

    def test_timings_cover_all_stages(self, solution):
        for stage in ("synthesis", "decomposition", "realization", "validation"):
            assert stage in solution.timings
        assert solution.total_seconds == pytest.approx(sum(solution.timings.values()))
        assert solution.synthesis_seconds > 0

    def test_summary_mentions_agents_and_time(self, solution):
        text = solution.summary()
        assert "agents" in text
        assert "synthesis" in text

    def test_plan_horizon_within_limit(self, solution):
        assert solution.plan.horizon <= solution.instance.horizon + 1

    def test_independent_validation_agrees(self, solution, designed):
        report = PlanValidator(designed.warehouse).validate(solution.plan)
        assert report.is_feasible
        assert report.delivered == solution.plan.delivered_units()


class TestSolverInterface:
    def test_solve_wsp_helper(self, designed):
        workload = Workload.from_mapping(designed.warehouse.catalog, {1: 2, 2: 2})
        solution = solve_wsp(designed.traffic_system, workload, horizon=600)
        assert solution.succeeded
        assert solution.services_workload

    def test_solve_instance_requires_matching_warehouse(self, designed):
        other = toy_warehouse()
        workload = Workload.uniform(other.warehouse.catalog, 4)
        instance = WSPInstance(other.warehouse, workload, horizon=600)
        solver = WSPSolver(designed.traffic_system)
        with pytest.raises(FlowSynthesisError):
            solver.solve_instance(instance)

    def test_infeasible_instance_reports_gracefully(self, designed):
        # 2000 units fit the stock but far exceed the traffic system's
        # per-period delivery capacity within the 600-step horizon.
        workload = Workload.uniform(designed.warehouse.catalog, 2000)
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=600)
        assert not solution.succeeded
        assert solution.plan is None
        assert not solution.services_workload
        assert "no agent flow set" in solution.message

    def test_custom_options_are_respected(self, designed):
        options = SolverOptions(
            synthesis=SynthesisOptions(objective="none", warmup_periods=2),
            realization=RealizationOptions(preload_agents=False),
        )
        workload = Workload.uniform(designed.warehouse.catalog, 4)
        solution = WSPSolver(designed.traffic_system, options).solve(workload, horizon=600)
        assert solution.succeeded
        assert solution.flow_set.warmup_periods == 2


class TestOtherMaps:
    def test_sorting_center_small_end_to_end(self):
        center = sorting_center_small()
        workload = center.uniform_workload(center.num_chutes * 2)
        solution = WSPSolver(center.traffic_system).solve(workload, horizon=1500)
        assert solution.succeeded
        assert solution.plan_is_feasible
        assert solution.services_workload

    def test_single_slice_layout_end_to_end(self):
        layout = FulfillmentLayout(
            num_slices=1,
            shelf_columns=4,
            shelf_bands=1,
            shelf_depth=1,
            num_stations=1,
            num_products=2,
            name="single-slice",
        )
        designed = generate_fulfillment_center(layout)
        workload = Workload.uniform(designed.warehouse.catalog, 4)
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=800)
        assert solution.succeeded
        assert solution.plan_is_feasible
        assert solution.services_workload

    def test_skewed_workload_end_to_end(self, designed):
        workload = Workload.from_mapping(designed.warehouse.catalog, {1: 12, 3: 1})
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=900)
        assert solution.succeeded
        assert solution.services_workload
