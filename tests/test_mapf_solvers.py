"""Tests for the multi-agent solvers: prioritized, CBS, ECBS, and the lifelong planner."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WSPSolver
from repro.deadline import current_deadline
from repro.maps import toy_warehouse
from repro.obs import capture_trace
from repro.mapf import (
    CBSOptions,
    ECBSOptions,
    IteratedPlanner,
    IteratedPlannerOptions,
    LifelongError,
    LifelongTask,
    MAPFProblem,
    goal_sequences_from_plan,
    solve_cbs,
    solve_ecbs,
    solve_prioritized,
)
from repro.warehouse import FloorplanGraph, Workload, build_grid


def open_floorplan(width=5, height=3, obstacles=()):
    return FloorplanGraph.from_grid(build_grid(width, height, obstacles=obstacles))


def corridor_swap_problem():
    """Two agents must swap ends of a 5x1 corridor with a single passing bay."""
    grid = build_grid(5, 2, obstacles=[(0, 1), (1, 1), (3, 1), (4, 1)])
    floorplan = FloorplanGraph.from_grid(grid)
    a = (floorplan.vertex_at((0, 0)), floorplan.vertex_at((4, 0)))
    b = (floorplan.vertex_at((4, 0)), floorplan.vertex_at((0, 0)))
    return MAPFProblem.from_pairs(floorplan, [a, b])


def crossing_problem():
    """Two agents whose shortest paths cross in the middle of an open grid."""
    floorplan = open_floorplan(3, 3)
    a = (floorplan.vertex_at((0, 1)), floorplan.vertex_at((2, 1)))
    b = (floorplan.vertex_at((1, 0)), floorplan.vertex_at((1, 2)))
    return MAPFProblem.from_pairs(floorplan, [a, b])


class TestPrioritized:
    def test_crossing(self):
        solution = solve_prioritized(crossing_problem())
        assert solution is not None
        assert solution.is_valid()

    def test_corridor_swap_shows_incompleteness(self):
        # The higher-priority agent sweeps the corridor toward the other
        # agent's start and parks there; prioritized planning cannot resolve
        # this (well-known incompleteness), while CBS can (see TestCBS).
        assert solve_prioritized(corridor_swap_problem()) is None

    def test_custom_order(self):
        problem = crossing_problem()
        solution = solve_prioritized(problem, order=[1, 0])
        assert solution is not None
        assert solution.is_valid()

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            solve_prioritized(crossing_problem(), order=[0, 0])


class TestCBS:
    def test_crossing_is_optimal(self):
        solution = solve_cbs(crossing_problem())
        assert solution is not None
        assert solution.is_valid()
        # Each agent's individually optimal cost is 2; one of them must wait or
        # detour exactly one step.
        assert solution.sum_of_costs == 5

    def test_corridor_swap(self):
        solution = solve_cbs(corridor_swap_problem())
        assert solution is not None
        assert solution.is_valid()

    def test_single_agent(self):
        floorplan = open_floorplan()
        problem = MAPFProblem.from_pairs(
            floorplan, [(floorplan.vertex_at((0, 0)), floorplan.vertex_at((4, 2)))]
        )
        solution = solve_cbs(problem)
        assert solution is not None
        assert solution.sum_of_costs == 6

    def test_node_limit_gives_none(self):
        solution = solve_cbs(corridor_swap_problem(), CBSOptions(max_nodes=1))
        # With a single constraint-tree node the conflicting root cannot be
        # resolved.
        assert solution is None


class TestECBS:
    def test_crossing_within_bound(self):
        optimal = solve_cbs(crossing_problem())
        bounded = solve_ecbs(crossing_problem(), ECBSOptions(suboptimality=1.5))
        assert bounded is not None
        assert bounded.is_valid()
        assert bounded.sum_of_costs <= 1.5 * optimal.sum_of_costs

    def test_corridor_swap(self):
        solution = solve_ecbs(corridor_swap_problem())
        assert solution is not None
        assert solution.is_valid()

    def test_invalid_suboptimality_rejected(self):
        with pytest.raises(ValueError):
            ECBSOptions(suboptimality=0.5)

    def test_conflict_scans_only_on_conflicted_nodes(self):
        # A node whose conflict count is 0 is the solution, so every expanded
        # node but the last pays for a first_conflict scan, and a clean root
        # pays for none.
        single = MAPFProblem.from_pairs(open_floorplan(), [(0, 4)])
        for problem in (single, crossing_problem(), corridor_swap_problem()):
            with capture_trace() as capture:
                assert solve_ecbs(problem, ECBSOptions(suboptimality=1.0)) is not None
            counters = capture.root.counters
            assert counters.get("conflict_checks", 0) == counters["ct_nodes_expanded"] - 1

    def test_many_agents_on_open_grid(self):
        floorplan = open_floorplan(6, 4)
        pairs = []
        for i in range(6):
            start = floorplan.vertex_at((i, 0))
            goal = floorplan.vertex_at((5 - i, 3))
            pairs.append((start, goal))
        problem = MAPFProblem.from_pairs(floorplan, pairs)
        solution = solve_ecbs(problem, ECBSOptions(suboptimality=2.0))
        assert solution is not None
        assert solution.is_valid()


class TestECBSvsCBSPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounded_suboptimality_on_random_instances(self, seed):
        import random

        rng = random.Random(seed)
        floorplan = open_floorplan(5, 4)
        cells = [floorplan.vertex_at(c) for c in floorplan.cells]
        starts = rng.sample(cells, 3)
        goals = rng.sample(cells, 3)
        problem = MAPFProblem.from_pairs(floorplan, list(zip(starts, goals)))
        optimal = solve_cbs(problem, CBSOptions(max_nodes=2000))
        bounded = solve_ecbs(problem, ECBSOptions(suboptimality=1.5, max_nodes=2000))
        if optimal is None or bounded is None:
            return  # skip instances the limited search cannot settle
        assert bounded.is_valid()
        assert bounded.sum_of_costs <= 1.5 * optimal.sum_of_costs + 1e-9


class TestIteratedPlanner:
    def test_sequential_goals_completed(self):
        floorplan = open_floorplan(5, 3)
        tasks = [
            LifelongTask(0, floorplan.vertex_at((0, 0)),
                         (floorplan.vertex_at((4, 0)), floorplan.vertex_at((0, 2)))),
            LifelongTask(1, floorplan.vertex_at((0, 1)),
                         (floorplan.vertex_at((4, 1)),)),
        ]
        planner = IteratedPlanner(floorplan)
        result = planner.solve(tasks)
        assert result.completed
        assert result.goals_completed == 3
        assert result.is_collision_free()
        assert result.makespan > 0

    def test_engines(self):
        floorplan = open_floorplan(4, 3)
        tasks = [
            LifelongTask(0, floorplan.vertex_at((0, 0)), (floorplan.vertex_at((3, 2)),)),
            LifelongTask(1, floorplan.vertex_at((3, 0)), (floorplan.vertex_at((0, 2)),)),
        ]
        for engine in ("ecbs", "cbs", "prioritized"):
            result = IteratedPlanner(
                floorplan, IteratedPlannerOptions(engine=engine)
            ).solve(tasks)
            assert result.completed, engine
            assert result.is_collision_free(), engine

    def test_shared_goals_are_sequenced(self):
        floorplan = open_floorplan(4, 3)
        shared = floorplan.vertex_at((3, 1))
        tasks = [
            LifelongTask(0, floorplan.vertex_at((0, 0)), (shared,)),
            LifelongTask(1, floorplan.vertex_at((0, 2)), (shared, floorplan.vertex_at((0, 1)))),
        ]
        result = IteratedPlanner(floorplan).solve(tasks)
        assert result.completed
        assert result.is_collision_free()

    def test_time_limit_reports_incomplete(self):
        floorplan = open_floorplan(6, 4)
        tasks = [
            LifelongTask(
                i,
                floorplan.vertex_at((i, 0)),
                tuple(floorplan.vertex_at((5 - i, 3)) for _ in range(5)),
            )
            for i in range(5)
        ]
        result = IteratedPlanner(
            floorplan, IteratedPlannerOptions(time_limit=1e-6)
        ).solve(tasks)
        assert not result.completed
        assert result.goals_completed < result.goals_total

    def test_demotion_ladder_shares_the_time_limit(self, monkeypatch):
        """Rungs after a timed-out attempt get what is left, not a fresh budget."""
        floorplan = open_floorplan(6, 4)
        tasks = [
            LifelongTask(i, floorplan.vertex_at((i, 0)), (floorplan.vertex_at((5 - i, 3)),))
            for i in range(4)
        ]

        def searches_until_its_limit(self, problem, dispatched, node_limit=None):
            time.sleep(min(current_deadline().remaining(), 0.2))
            return None

        monkeypatch.setattr(IteratedPlanner, "_solve_episode", searches_until_its_limit)
        result = IteratedPlanner(floorplan, IteratedPlannerOptions(time_limit=0.3)).solve(tasks)
        assert result.status == "time_limit"
        assert result.runtime_seconds < 0.5

    def test_bad_engine_rejected(self):
        with pytest.raises(LifelongError):
            IteratedPlannerOptions(engine="dijkstra")


class TestGoalExtraction:
    def test_goal_sequences_from_codesign_plan(self):
        designed = toy_warehouse()
        workload = Workload.uniform(designed.warehouse.catalog, 4)
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=600)
        assert solution.succeeded
        tasks = goal_sequences_from_plan(solution.plan, max_goals_per_agent=3)
        assert len(tasks) == solution.plan.num_agents
        assert any(task.goals for task in tasks)
        floorplan = designed.warehouse.floorplan
        for task in tasks:
            assert len(task.goals) <= 3
            for goal in task.goals:
                assert floorplan.is_shelf_access(goal) or floorplan.is_station(goal)
