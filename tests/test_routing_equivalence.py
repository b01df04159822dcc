"""Grid routing's fast paths against the oracles in ``reference_routing``.

Routed plans and every :class:`RoutingReport` field must come out identical
with the library's occupancy index, early-stopping retreat, table-read
free-flow cost, array-owned goal specs, screened conflict counts, low-level
fast paths (list distance rows, start-at-goal shortcuts, cached safe
intervals) and one-pass problem validation as with the per-call work they
replaced.  The routed runs cover:

* the digital twin's three paced plans (one router each; on those plans every
  router returns the same plan, and ECBS's root never branches);
* the small routing suite, every router;
* unpaced ECBS and CBS runs, in which ECBS does branch, so a child node's
  occupancy index is exercised too.

Direct checks compare both low levels, the occupancy probes, the retreat
choice and the goal specs on random inputs, and pin that ECBS may skip the
conflict scan of a node whose conflict count is 0.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

import reference_routing as reference
from repro.core import WSPSolver
from repro.experiments.generator import routing_scale_suite, routing_suite
from repro.mapf import (
    Constraint,
    ConstraintSet,
    IteratedPlanner,
    ReservationTable,
    SearchStats,
    count_conflicts,
    first_conflict,
    space_time_astar,
    space_time_focal_astar,
)
from repro.mapf import astar, mapd
from repro.sim.routing import (
    RoutingConfig,
    RoutingError,
    free_flow_cost,
    plan_goal_specs,
    route_plan,
)
from repro.warehouse import FloorplanGraph, build_grid


def _solve(spec):
    designed, demand = spec.build()
    return WSPSolver(designed.traffic_system).solve(demand, horizon=spec.horizon)


@pytest.fixture(scope="module")
def twin_solutions():
    return [_solve(spec) for spec in routing_scale_suite(0)[:3]]


@pytest.fixture(scope="module")
def small_solution():
    return _solve(routing_suite(0)[0])


def _route_both(solution, config):
    fast = route_plan(solution.plan, config, system=solution.traffic_system)
    with reference.reference_routing():
        slow = route_plan(solution.plan, config, system=solution.traffic_system)
    return fast, slow


def _assert_same_routing(fast, slow) -> None:
    (plan, report), (reference_plan, reference_report) = fast, slow
    for name in ("positions", "carrying"):
        ours, theirs = getattr(plan, name), getattr(reference_plan, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name
    assert plan.metadata == reference_plan.metadata
    assert dataclasses.asdict(report) == dataclasses.asdict(reference_report)


def _random_walk(rng, floorplan, length, start=None):
    vertex = rng.randrange(floorplan.num_vertices) if start is None else start
    path = [vertex]
    for _ in range(length - 1):
        options = (vertex,) + floorplan.neighbors(vertex)
        vertex = rng.choice(options)
        path.append(vertex)
    return tuple(path)


class TestRoutedRuns:
    @pytest.mark.parametrize(
        "index, config",
        [
            (0, RoutingConfig(router="ecbs")),
            (1, RoutingConfig(router="lifelong", window=8)),
            (2, RoutingConfig(router="prioritized")),
        ],
        ids=["s2-ecbs", "s3-lifelong", "s4-prioritized"],
    )
    def test_twin_plans(self, twin_solutions, index, config):
        fast, slow = _route_both(twin_solutions[index], config)
        _assert_same_routing(fast, slow)
        assert fast[1].completed and fast[1].conflicts == 0

    def test_routing_suite(self):
        routed = 0
        for spec in routing_suite(0):
            config = spec.routing_config()
            if config is None:
                continue
            _assert_same_routing(*_route_both(_solve(spec), config))
            routed += 1
        assert routed == 5

    def test_unpaced_runs_branch(self, small_solution, monkeypatch):
        ct_nodes = []
        solve_ecbs = mapd.solve_ecbs

        def recording(problem, options=None):
            solution = solve_ecbs(problem, options)
            if solution is not None:
                ct_nodes.append(solution.metadata["ct_nodes"])
            return solution

        monkeypatch.setattr(mapd, "solve_ecbs", recording)
        for router in ("ecbs", "cbs"):
            for window in (0, 4):
                config = RoutingConfig(router=router, window=window, pace_to_plan=False)
                _assert_same_routing(*_route_both(small_solution, config))
        # A child node's index is only exercised when ECBS branches.
        assert max(ct_nodes) > 1


class TestGoalSpecsAndCosts:
    def test_goal_specs(self, twin_solutions, small_solution):
        for solution in twin_solutions + [small_solution]:
            for system in (solution.traffic_system, None):
                ours = plan_goal_specs(solution.plan, system)
                theirs = reference.plan_goal_specs(solution.plan, system)
                assert ours == theirs
                for goals in ours:
                    for vertex, release, carry, _ in goals:
                        assert type(vertex) is int and type(release) is int
                        assert carry is None or type(carry) is int

    def test_free_flow_cost(self, twin_solutions):
        rng = random.Random(5)
        floorplan = twin_solutions[0].plan.warehouse.floorplan
        for _ in range(50):
            start = rng.randrange(floorplan.num_vertices)
            goals = tuple(rng.randrange(floorplan.num_vertices) for _ in range(4))
            assert free_flow_cost(floorplan, start, goals) == reference.free_flow_cost(
                floorplan, start, goals
            )

    def test_free_flow_cost_unreachable(self):
        floorplan = FloorplanGraph.from_grid(build_grid(3, 1, obstacles=[(1, 0)]))
        left, right = floorplan.vertex_at((0, 0)), floorplan.vertex_at((2, 0))
        for cost in (free_flow_cost, reference.free_flow_cost):
            with pytest.raises(RoutingError):
                cost(floorplan, left, (left, right))


class TestLowLevel:
    def test_occupancy_probes(self, small_solution):
        # Every (from, to, tick) probe, ticks past the longest path included:
        # an agent rests at its last vertex forever.
        floorplan = small_solution.plan.warehouse.floorplan
        rng = random.Random(3)
        for _ in range(20):
            paths = [
                _random_walk(rng, floorplan, rng.randint(1, 12))
                for _ in range(rng.randint(1, 6))
            ]
            ours, theirs = astar._Occupancy(paths), reference.Occupancy(paths)
            horizon = max(len(p) for p in paths)
            for to_vertex in range(floorplan.num_vertices):
                for from_vertex in (to_vertex,) + floorplan.neighbors(to_vertex):
                    for tick in range(horizon + 3):
                        assert ours.probe(from_vertex, to_vertex, tick) == theirs.probe(
                            from_vertex, to_vertex, tick
                        )

    def test_focal_search(self, small_solution):
        floorplan = small_solution.plan.warehouse.floorplan
        rng = random.Random(11)
        solved = 0
        for trial in range(80):
            start, goal = rng.sample(range(floorplan.num_vertices), 2)
            if trial % 4 == 0:
                goal = start
            other_paths = [
                _random_walk(rng, floorplan, rng.randint(1, 15))
                for _ in range(rng.randint(0, 5))
            ]
            # Every third search constrains another agent only; every fifth
            # also forbids the goal at some tick.
            agent = 1 if trial % 3 == 0 else 0
            constraints = ConstraintSet(
                Constraint(agent=agent, vertex=vertex, timestep=rng.randint(1, 10))
                for vertex in rng.sample(range(floorplan.num_vertices), 3)
            )
            hop = _random_walk(rng, floorplan, 2, start=start)
            constraints.add(
                Constraint(agent=agent, vertex=hop[1], timestep=1, edge_from=start)
            )
            if trial % 5 == 0:
                constraints.add(Constraint(agent=0, vertex=goal, timestep=rng.randint(1, 6)))
            suboptimality = rng.choice((1.0, 1.5, 2.0))

            def search(low_level):
                stats = SearchStats()
                result = low_level(
                    floorplan,
                    start,
                    goal,
                    agent=0,
                    constraints=constraints,
                    other_paths=other_paths,
                    suboptimality=suboptimality,
                    stats=stats,
                )
                return result, stats.expansions, stats.generated

            ours = search(space_time_focal_astar)
            assert ours == search(reference.space_time_focal_astar)
            solved += ours[0] is not None
        assert solved > 40

    def test_sipp_search(self, small_solution):
        # One reservation table per trial, searched, grown and searched again,
        # so the cached intervals are read after every kind of update.
        floorplan = small_solution.plan.warehouse.floorplan
        vertices = range(floorplan.num_vertices)
        rng = random.Random(17)
        outcomes = set()
        for trial in range(40):
            reservations = None if trial % 4 == 0 else ReservationTable()
            constraints = None
            if trial % 3:
                constraints = ConstraintSet(
                    Constraint(agent=0, vertex=vertex, timestep=rng.randint(1, 10))
                    for vertex in rng.sample(vertices, rng.randint(0, 4))
                )
            for _ in range(4):
                start, goal = rng.sample(vertices, 2)
                if rng.random() < 0.4:
                    goal = start
                start_time = rng.randint(0, 3)

                def search(low_level):
                    stats = SearchStats()
                    path = low_level(
                        floorplan,
                        start,
                        goal,
                        constraints=constraints,
                        reservations=reservations,
                        start_time=start_time,
                        stats=stats,
                    )
                    return path, stats.expansions, stats.generated

                ours = search(space_time_astar)
                assert ours == search(reference.space_time_astar)
                outcomes.add((ours[0] is None, start == goal, ours[1] == 1))
                if reservations is not None:
                    reservations.reserve_path(
                        _random_walk(rng, floorplan, rng.randint(1, 10)),
                        park_at_goal=rng.random() < 0.3,
                    )
        # Solved and unsolvable searches, shortcuts and full searches at a goal.
        assert {(True, False, False), (False, False, False)} <= outcomes
        assert {(False, True, True), (False, True, False)} <= outcomes

    def test_retreat_target(self, twin_solutions):
        floorplan = twin_solutions[0].plan.warehouse.floorplan
        planner = IteratedPlanner(floorplan)
        vertices = range(floorplan.num_vertices)
        rng = random.Random(7)
        for start in vertices:
            for _ in range(4):
                blocked = set(rng.sample(vertices, rng.randint(0, floorplan.num_vertices)))
                if rng.random() < 0.5:
                    blocked.add(start)
                corridor = rng.choice(
                    (
                        None,
                        frozenset(rng.sample(vertices, 20)) | {start},
                        frozenset(rng.sample(vertices, 20)) - {start},
                    )
                )
                assert planner._retreat_target(
                    start, blocked, corridor
                ) == reference.retreat_target(planner, start, blocked, corridor)

    def test_conflict_count_zero_iff_no_first_conflict(self):
        floorplan = FloorplanGraph.from_grid(build_grid(4, 3))
        rng = random.Random(13)
        outcomes = set()
        for _ in range(400):
            paths = [
                _random_walk(rng, floorplan, rng.randint(1, 8))
                for _ in range(rng.randint(1, 4))
            ]
            clean = count_conflicts(paths) == 0
            assert clean == (first_conflict(paths) is None)
            outcomes.add(clean)
        assert outcomes == {True, False}
