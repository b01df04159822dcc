"""Tests for the MAPF substrate: space-time A*, constraints, reservations."""

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.mapf import (
    Constraint,
    ConstraintSet,
    DistanceTables,
    MAPFProblem,
    ReservationTable,
    SearchStats,
    distance_tables,
    find_conflicts,
    first_conflict,
    position_at,
    shortest_path_lengths,
    space_time_astar,
    space_time_focal_astar,
)
from repro.mapf import heuristics
from repro.warehouse import FloorplanGraph, build_grid

OPEN_5X3 = build_grid(5, 3)


@pytest.fixture()
def floorplan():
    return FloorplanGraph.from_grid(OPEN_5X3)


def v(floorplan, x, y):
    return floorplan.vertex_at((x, y))


class TestConflictDetection:
    def test_vertex_conflict(self, floorplan):
        a = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        b = (v(floorplan, 2, 0), v(floorplan, 1, 0))
        conflicts = find_conflicts([a, b])
        assert len(conflicts) == 1
        assert conflicts[0].kind == "vertex"
        assert conflicts[0].timestep == 1

    def test_edge_conflict(self, floorplan):
        a = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        b = (v(floorplan, 1, 0), v(floorplan, 0, 0))
        conflicts = find_conflicts([a, b])
        assert any(c.kind == "edge" for c in conflicts)

    def test_following_is_fine(self, floorplan):
        a = (v(floorplan, 1, 0), v(floorplan, 2, 0))
        b = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        assert find_conflicts([a, b]) == []

    def test_parked_agent_conflicts_after_path_end(self, floorplan):
        a = (v(floorplan, 2, 0),)
        b = (v(floorplan, 0, 0), v(floorplan, 1, 0), v(floorplan, 2, 0))
        conflict = first_conflict([a, b])
        assert conflict is not None
        assert conflict.timestep == 2

    def test_position_at_extends_goal(self, floorplan):
        path = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        assert position_at(path, 0) == path[0]
        assert position_at(path, 99) == path[1]


class TestSpaceTimeAStar:
    def test_straight_line(self, floorplan):
        path = space_time_astar(floorplan, v(floorplan, 0, 0), v(floorplan, 4, 0))
        assert path is not None
        assert len(path) == 5
        assert path[0] == v(floorplan, 0, 0)
        assert path[-1] == v(floorplan, 4, 0)

    def test_heuristic_matches_bfs(self, floorplan):
        distances = shortest_path_lengths(floorplan, v(floorplan, 4, 2))
        assert distances[v(floorplan, 0, 0)] == 6

    def test_vertex_constraint_forces_detour_or_wait(self, floorplan):
        start, goal = v(floorplan, 0, 0), v(floorplan, 2, 0)
        constraints = ConstraintSet([Constraint(0, v(floorplan, 1, 0), 1)])
        path = space_time_astar(floorplan, start, goal, agent=0, constraints=constraints)
        assert path is not None
        assert len(path) > 3 or path[1] != v(floorplan, 1, 0)
        assert path[-1] == goal

    def test_edge_constraint_respected(self, floorplan):
        start, goal = v(floorplan, 0, 0), v(floorplan, 1, 0)
        constraints = ConstraintSet(
            [Constraint(0, v(floorplan, 1, 0), 1, edge_from=v(floorplan, 0, 0))]
        )
        path = space_time_astar(floorplan, start, goal, agent=0, constraints=constraints)
        assert path is not None
        assert not (path[0] == start and path[1] == goal)

    def test_goal_constraint_delays_arrival(self, floorplan):
        start, goal = v(floorplan, 0, 0), v(floorplan, 1, 0)
        constraints = ConstraintSet([Constraint(0, goal, 5)])
        path = space_time_astar(floorplan, start, goal, agent=0, constraints=constraints)
        assert path is not None
        # The agent may not sit on the goal at t=5, so it must arrive later.
        assert len(path) - 1 > 5
        assert position_at(path, 5) != goal

    def test_reservations_respected(self, floorplan):
        table = ReservationTable()
        other = (v(floorplan, 1, 0), v(floorplan, 1, 0), v(floorplan, 1, 0))
        table.reserve_path(other, park_at_goal=False)
        path = space_time_astar(
            floorplan,
            v(floorplan, 0, 0),
            v(floorplan, 2, 0),
            reservations=table,
        )
        assert path is not None
        for t, vertex in enumerate(path):
            assert not (vertex == v(floorplan, 1, 0) and t <= 2)

    def test_parked_reservation_blocks_forever(self, floorplan):
        table = ReservationTable()
        table.reserve_path((v(floorplan, 1, 0),), park_at_goal=True)
        path = space_time_astar(
            floorplan, v(floorplan, 0, 0), v(floorplan, 2, 0), reservations=table
        )
        assert path is not None
        assert v(floorplan, 1, 0) not in path

    def test_unreachable_goal(self):
        grid = build_grid(3, 1, obstacles=[(1, 0)])
        floorplan = FloorplanGraph.from_grid(grid)
        path = space_time_astar(
            floorplan, floorplan.vertex_at((0, 0)), floorplan.vertex_at((2, 0))
        )
        assert path is None

    def test_stats_recorded(self, floorplan):
        stats = SearchStats()
        space_time_astar(
            floorplan, v(floorplan, 0, 0), v(floorplan, 4, 2), stats=stats
        )
        assert stats.expansions > 0
        assert stats.generated > 0


class TestFocalAStar:
    def test_same_cost_as_optimal_when_unconstrained(self, floorplan):
        result = space_time_focal_astar(
            floorplan,
            v(floorplan, 0, 0),
            v(floorplan, 4, 0),
            agent=0,
            constraints=ConstraintSet(),
            other_paths=[],
            suboptimality=1.5,
        )
        assert result is not None
        path, bound = result
        assert len(path) - 1 == 4
        assert bound <= len(path) - 1

    def test_avoids_other_paths_when_cheap(self, floorplan):
        # Another agent sits on the straight-line route; the focal search picks
        # a same-cost path around it when one exists.
        blocker = tuple([v(floorplan, 2, 0)] * 6)
        result = space_time_focal_astar(
            floorplan,
            v(floorplan, 0, 0),
            v(floorplan, 4, 0),
            agent=0,
            constraints=ConstraintSet(),
            other_paths=[blocker],
            suboptimality=2.0,
        )
        assert result is not None
        path, _ = result
        assert find_conflicts([path, blocker]) == []


class TestProblemValidation:
    def test_duplicate_starts_rejected(self, floorplan):
        from repro.mapf import MAPFError

        with pytest.raises(MAPFError):
            MAPFProblem.from_pairs(
                floorplan,
                [(v(floorplan, 0, 0), v(floorplan, 1, 0)), (v(floorplan, 0, 0), v(floorplan, 2, 0))],
            )

    def test_out_of_range_vertex_rejected(self, floorplan):
        from repro.mapf import MAPFError

        with pytest.raises(MAPFError):
            MAPFProblem.from_pairs(floorplan, [(0, 99999)])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 1), (2, 3), (0, 4)], "agents 0 and 2 share start vertex 0"),
            ([(0, 1), (2, 99)], "agent 1: goal vertex 99 outside the floorplan"),
            ([(0, 1), (-1, 2)], "agent 1: start vertex -1 outside the floorplan"),
            # The first offender in agent order is named, start before goal.
            ([(0, 99), (0, 1)], "agent 0: goal vertex 99 outside the floorplan"),
            ([(3, 1), (99, -1), (3, 2)], "agent 1: start vertex 99 outside"),
        ],
    )
    def test_errors_name_the_first_offender(self, floorplan, pairs, message):
        from repro.mapf import MAPFError

        with pytest.raises(MAPFError, match=message):
            MAPFProblem.from_pairs(floorplan, pairs)

    def test_valid_problems_pass(self, floorplan):
        last = floorplan.num_vertices - 1
        assert MAPFProblem.from_pairs(floorplan, [(0, last), (last, 0), (1, 1)])
        assert MAPFProblem.from_pairs(floorplan, []).num_agents == 0


class TestFastPaths:
    """The low levels' shortcuts return what their full searches return."""

    def test_reserving_through_a_cached_vertex_changes_its_intervals(self, floorplan):
        from repro.mapf.constraints import UNBLOCKED, _INF

        table = ReservationTable()
        a, mid, b = v(floorplan, 0, 0), v(floorplan, 1, 0), v(floorplan, 2, 0)
        assert table.safe_intervals(mid) is UNBLOCKED
        table.reserve_path((a, mid, b), park_at_goal=False)
        assert table.safe_intervals(mid)[0] == ((0, 0), (2, _INF))
        assert table.safe_intervals(b)[0] == ((0, 1), (3, _INF))
        assert table.safe_intervals(v(floorplan, 4, 2)) is UNBLOCKED

    def test_parking_on_a_cached_vertex_changes_its_intervals(self, floorplan):
        from repro.mapf.constraints import _INF

        table = ReservationTable()
        path = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        table.reserve_path(path, park_at_goal=False)
        assert table.safe_intervals(path[1])[0] == ((0, 0), (2, _INF))
        # Every cell is reserved already: only the parked tail is new.
        table.reserve_path(path, park_at_goal=True)
        assert table.safe_intervals(path[1])[0] == ((0, 0),)
        table.reserve_path((path[1],) * 5, park_at_goal=True)
        assert table.safe_intervals(path[1])[0] == ()

    def test_cached_intervals_match_a_fresh_merge(self, floorplan):
        from repro.mapf.constraints import _merge_intervals

        rng = random.Random(2)
        table = ReservationTable()
        for _ in range(30):
            for vertex in rng.sample(range(floorplan.num_vertices), 5):
                expected = _merge_intervals(
                    table.blocked_times(vertex), table.parked.get(vertex)
                )
                assert table.safe_intervals(vertex)[0] == expected
                assert table.safe_intervals(vertex)[1] == tuple(i[0] for i in expected)
            path = [rng.randrange(floorplan.num_vertices)]
            for _ in range(rng.randint(0, 6)):
                path.append(rng.choice((path[-1],) + floorplan.neighbors(path[-1])))
            table.reserve_path(tuple(path), park_at_goal=rng.random() < 0.3)

    def test_start_at_goal_counts_one_expansion(self, floorplan):
        start = v(floorplan, 2, 1)
        other = (v(floorplan, 0, 0), v(floorplan, 1, 0))
        for reservations in (None, ReservationTable()):
            stats = SearchStats()
            path = space_time_astar(
                floorplan, start, start, reservations=reservations, stats=stats
            )
            assert path == (start,)
            assert (stats.expansions, stats.generated) == (1, 0)
        stats = SearchStats()
        result = space_time_focal_astar(
            floorplan, start, start, 0, ConstraintSet(), [other], stats=stats
        )
        assert result == ((start,), 0)
        assert (stats.expansions, stats.generated) == (1, 0)

    def test_goal_blocked_later_runs_the_full_search(self, floorplan):
        goal = v(floorplan, 2, 1)
        later = ConstraintSet([Constraint(0, goal, 3)])
        passing = ReservationTable()
        passing.reserve_path(
            (v(floorplan, 0, 1), v(floorplan, 1, 1), v(floorplan, 1, 1), goal),
            park_at_goal=False,
        )
        runs = [
            lambda stats: space_time_astar(
                floorplan, goal, goal, constraints=later, stats=stats
            ),
            lambda stats: space_time_astar(
                floorplan, goal, goal, reservations=passing, stats=stats
            ),
            lambda stats: space_time_focal_astar(
                floorplan, goal, goal, 0, later, [], stats=stats
            )[0],
        ]
        for run in runs:
            stats = SearchStats()
            path = run(stats)
            # The agent must step off the goal at t=3 and come back.
            assert path[0] == path[-1] == goal and len(path) > 4
            assert position_at(path, 3) != goal
            assert stats.expansions > 1 and stats.generated > 0


class TestDistanceTableRegistry:
    @staticmethod
    def fresh_graph():
        """A graph outside the ``from_grid`` memo, so the test owns its lifetime."""
        base = FloorplanGraph.from_grid(OPEN_5X3)
        return FloorplanGraph(
            cells=list(base.cells),
            adjacency=list(base.adjacency),
            shelf_access=base.shelf_access,
            stations=base.stations,
        )

    def test_tables_outlive_the_callers_reference(self):
        floorplan = self.fresh_graph()
        distance_tables(floorplan).table(0)
        gc.collect()
        tables = distance_tables(floorplan)
        assert tables.cached_goals == 1

    def test_tables_die_with_their_graph(self):
        floorplan = self.fresh_graph()
        tables = weakref.ref(distance_tables(floorplan))
        gc.collect()
        assert tables() is not None
        del floorplan
        gc.collect()
        assert tables() is None

    def test_corridor_rows_stay_within_their_bound(self, monkeypatch):
        monkeypatch.setattr(heuristics, "CORRIDOR_ROWS", 8)
        floorplan = self.fresh_graph()
        tables = distance_tables(floorplan)
        corridors = [frozenset({0, extra}) for extra in range(1, 15)]
        rows = [tables.table(0, corridor) for corridor in corridors]
        assert tables.cached_corridor_rows == 8
        # Least recently used goes first: the oldest row left survives the
        # next insertion once re-read, and the one after it does not.
        assert tables.table(0, corridors[6]) is rows[6]
        tables.table(0, frozenset({1, 2}))
        assert tables.cached_corridor_rows == 8
        assert tables.table(0, corridors[6]) is rows[6]
        assert tables.table(0, corridors[7]) is not rows[7]

    def test_rows_are_list_copies_of_the_tables(self):
        floorplan = self.fresh_graph()
        tables = distance_tables(floorplan)
        corridor = frozenset({0, 1, 2, 5, 6})
        for goal in range(floorplan.num_vertices):
            for mask in (None, corridor):
                row = tables.row(goal, mask)
                assert row == tables.table(goal, mask).tolist()
                assert all(type(d) is int for d in row)
                assert tables.row(goal, mask) is row
            assert tables.distance(0, goal) == tables.row(goal)[0]

    def test_an_evicted_corridor_row_drops_its_list(self, monkeypatch):
        monkeypatch.setattr(heuristics, "CORRIDOR_ROWS", 2)
        floorplan = self.fresh_graph()
        tables = distance_tables(floorplan)
        corridors = [frozenset({0, extra}) for extra in (1, 2, 3)]
        rows = [tables.row(0, corridor) for corridor in corridors]
        assert tables.cached_corridor_rows == 2
        assert tables.row(0, corridors[2]) is rows[2]
        # The first corridor was evicted with its list: a fresh one comes back.
        again = tables.row(0, corridors[0])
        assert again == rows[0] and again is not rows[0]
        assert tables.table(0, corridors[0]).tolist() == again
        assert tables.cached_corridor_rows == 2

    def test_corridor_rows_survive_concurrent_routers(self, monkeypatch):
        # Threads routing on one graph share its corridor LRU.  With one row
        # kept and two corridors in turn, nearly every lookup evicts, so a
        # hit re-ordering the LRU races an eviction unless the LRU is locked.
        monkeypatch.setattr(heuristics, "CORRIDOR_ROWS", 1)
        floorplan = self.fresh_graph()
        tables = distance_tables(floorplan)
        corridors = [frozenset({0, 1}), frozenset({0, 2})]
        expected = {c: DistanceTables(floorplan).table(0, c) for c in corridors}
        errors = []

        def route(seed):
            rng = random.Random(seed)
            try:
                for _ in range(5000):
                    corridor = rng.choice(corridors)
                    assert np.array_equal(tables.table(0, corridor), expected[corridor])
            except Exception as error:  # reported below, on the test's thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=route, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tables.cached_corridor_rows == 1
