"""Reference oracles for grid routing: the per-call rebuilds.

The library indexes the ECBS low level's collision counts once per path,
stops a retreat's BFS at the first free vertex, reads free-flow distances
from the shared distance tables, builds a plan's routing goals from a
vertex-to-component array and screens the routed positions with numpy before
it counts conflicts.  The straightforward code below is the semantics those
fast paths must reproduce exactly; the equivalence tests run both and compare:

* :class:`Occupancy` — per-tick vertex counts rebuilt over every path, tick
  by tick, whenever a path is added (the focal low level's collision probes);
* :func:`retreat_target` — a full dict BFS, sorted by distance;
* :func:`free_flow_cost` — one dict BFS per goal vertex;
* :func:`plan_goal_specs` — two ``owner_of`` lookups per agent-tick and a
  corridor kept up to date at every tick;
* ``len(find_conflicts(paths))`` on every routed run and ``count_conflicts``
  on every ECBS root: the installer switches both numpy screens off (they
  always report a possible collision);
* :func:`space_time_astar` and :func:`space_time_focal_astar` — the SIPP and
  focal low levels without their fast paths: distance rows read as numpy
  scalars, a full search for an agent already at its goal, constraint
  lookups for an agent with none, and safe intervals merged afresh on every
  search;
* :func:`validate_problem` — ``MAPFProblem``'s per-agent validation loop,
  run on every problem.

Install them into a run with :func:`reference_routing` (a context manager
patching the library's import sites).  Nothing here is reachable from
``src/``.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mapf import astar, cbs, ecbs, mapd, prioritized
from repro.mapf.astar import (
    SearchStats,
    _BucketQueue,
    _locate,
    _reconstruct,
    _reconstruct_sipp,
)
from repro.mapf.constraints import (
    _INF,
    ConstraintSet,
    ReservationTable,
    _merge_intervals,
)
from repro.mapf.heuristics import UNREACHABLE, DistanceTables, distance_tables
from repro.mapf.problem import MAPFError, MAPFProblem, Path, position_at
from repro.sim import routing
from repro.sim.routing import RoutingError


class Occupancy:
    """Per-tick collision probes, rebuilt tick by tick on every ``add``.

    Per-timestep vertex occupancy counts up to the longest path (shorter
    paths rest at their last vertex), move counts for swap detection, and the
    rest-at-goal tail beyond the longest path.
    """

    def __init__(self, other_paths: Sequence[Sequence[int]] = ()) -> None:
        self._paths = list(other_paths)
        self._build()

    def add(self, path: Sequence[int]) -> None:
        self._paths.append(path)
        self._build()

    def _build(self) -> None:
        other_paths = self._paths
        self._horizon = max((len(p) for p in other_paths), default=0)
        self._verts: List[Dict[int, int]] = []
        for t in range(self._horizon):
            counts: Dict[int, int] = {}
            for p in other_paths:
                v = position_at(p, t)
                counts[v] = counts.get(v, 0) + 1
            self._verts.append(counts)
        self._moves: Dict[Tuple[int, int, int], int] = {}
        self._rest: Dict[int, int] = {}
        for p in other_paths:
            if p:
                self._rest[p[-1]] = self._rest.get(p[-1], 0) + 1
            for t in range(1, len(p)):
                if p[t - 1] != p[t]:
                    key = (p[t - 1], p[t], t)
                    self._moves[key] = self._moves.get(key, 0) + 1

    def probe(self, from_vertex: int, to_vertex: int, arrival: int) -> int:
        if arrival < self._horizon:
            extra = self._verts[arrival].get(to_vertex, 0)
        else:
            extra = self._rest.get(to_vertex, 0)
        if from_vertex != to_vertex:
            extra += self._moves.get((to_vertex, from_vertex, arrival), 0)
        return extra


def retreat_target(self, start: int, blocked: set, corridor=None) -> int:
    """:meth:`IteratedPlanner._retreat_target` over a full, sorted dict BFS."""
    allowed = corridor if corridor is not None and start in corridor else None
    distances = self.floorplan.bfs_distances(start)
    for vertex in sorted(distances, key=distances.get):
        if allowed is not None and vertex not in allowed:
            continue
        if vertex not in blocked:
            return vertex
    return start


def free_flow_cost(floorplan, start: int, goals: Tuple[int, ...], distance_cache=None) -> int:
    """Free-flow cost with one dict BFS per unique goal vertex."""
    cache = distance_cache if distance_cache is not None else {}
    total = 0
    current = start
    for goal in goals:
        if goal not in cache:
            cache[goal] = floorplan.bfs_distances(goal)
        distances = cache[goal]
        if current not in distances:
            raise RoutingError(f"waypoint {goal} is unreachable from vertex {current}")
        total += distances[current]
        current = goal
    return total


def plan_goal_specs(plan, system=None):
    """:func:`repro.sim.routing.plan_goal_specs`, tick by tick."""
    if system is None:
        owner = lambda v: None  # noqa: E731 - trivial accessor stub
        comp_vertices: Dict[int, Tuple[int, ...]] = {}
    else:
        owner = system.owner_of
        comp_vertices = {c.index: tuple(c.vertices) for c in system.components}
    specs = []
    for agent in range(plan.num_agents):
        carrying = plan.carrying[agent]
        positions = plan.positions[agent]
        out: List[List] = []
        seg_owners: Set[int] = set()
        seg_free: Set[int] = set()

        def corridor() -> Optional[frozenset]:
            if system is None:
                return None
            allowed: set = set(seg_free)
            for index in seg_owners:
                allowed.update(comp_vertices[index])
            return frozenset(allowed)

        def accumulate(vertex: int) -> None:
            here = owner(vertex)
            if here is None:
                seg_free.add(vertex)
            else:
                seg_owners.add(here)

        for t in range(plan.horizon):
            vertex = int(positions[t])
            here = owner(vertex)
            appended = False
            if (
                t > 0
                and system is not None
                and here is not None
                and here != owner(int(positions[t - 1]))
            ):
                allowed = corridor()
                if allowed is not None:
                    allowed = frozenset(allowed | {vertex})
                out.append([vertex, t, None, allowed])
                appended = True
            accumulate(vertex)
            if t < plan.horizon - 1 and carrying[t + 1] != carrying[t]:
                if appended:
                    out[-1][2] = int(carrying[t + 1])
                else:
                    out.append([vertex, t, int(carrying[t + 1]), corridor()])
                    appended = True
            if appended:
                seg_owners.clear()
                seg_free.clear()
                accumulate(vertex)
        specs.append([tuple(entry) for entry in out])
    return specs


def agent_table(tables, agent) -> np.ndarray:
    """An agent's distance row as the ``int32`` array, corridor first."""
    corridor = getattr(agent, "corridor", None)
    if corridor is not None:
        table = tables.table(agent.goal, corridor)
        if table[agent.start] >= 0:
            return table
    return tables.table(agent.goal)


def heuristic_array(floorplan, goal: int, heuristic=None) -> np.ndarray:
    """A search's ``heuristic`` argument as an ``int32`` numpy row."""
    if heuristic is None:
        return distance_tables(floorplan).table(goal)
    if isinstance(heuristic, np.ndarray):
        return heuristic
    table = np.full(floorplan.num_vertices, UNREACHABLE, dtype=np.int32)
    for vertex, value in heuristic.items():
        table[vertex] = value
    return table


class SafeIntervals:
    """Per-search safe intervals, each vertex's merged afresh."""

    __slots__ = ("_constraint_blocked", "_reservations", "_cache")

    def __init__(
        self,
        agent: int,
        constraints: ConstraintSet,
        reservations: Optional[ReservationTable],
    ) -> None:
        self._constraint_blocked = constraints.vertex_blocked_times(agent)
        self._reservations = reservations
        self._cache: Dict[
            int, Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]
        ] = {}

    def intervals(
        self, vertex: int
    ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
        """``(intervals, starts)`` of a vertex; ``starts`` supports bisect."""
        cached = self._cache.get(vertex)
        if cached is None:
            blocked = list(self._constraint_blocked.get(vertex, ()))
            parked_from = None
            if self._reservations is not None:
                blocked.extend(self._reservations.blocked_times(vertex))
                parked_from = self._reservations.parked.get(vertex)
            intervals = _merge_intervals(blocked, parked_from)
            cached = (intervals, tuple(i[0] for i in intervals))
            self._cache[vertex] = cached
        return cached


def space_time_astar(
    floorplan,
    start: int,
    goal: int,
    agent: int = 0,
    constraints: Optional[ConstraintSet] = None,
    reservations: Optional[ReservationTable] = None,
    start_time: int = 0,
    max_timestep: Optional[int] = None,
    heuristic=None,
    stats: Optional[SearchStats] = None,
) -> Optional[Path]:
    """:func:`repro.mapf.astar.space_time_astar` without its fast paths."""
    constraints = constraints or ConstraintSet()
    h = heuristic_array(floorplan, goal, heuristic)
    if h[start] < 0:
        return None
    stats = stats if stats is not None else SearchStats()
    horizon_guard = max_timestep if max_timestep is not None else (
        floorplan.num_vertices * 4
        + constraints.latest_constraint_time(agent)
        + (reservations.latest_reserved_time() if reservations else 0)
    )
    latest_arrival = start_time + horizon_guard

    safe = SafeIntervals(agent, constraints, reservations)
    goal_intervals, _ = safe.intervals(goal)
    if not goal_intervals or goal_intervals[-1][1] != _INF:
        # A parked agent blocks the goal forever: resting there is impossible.
        return None
    goal_state = (goal, len(goal_intervals) - 1)

    start_intervals, start_starts = safe.intervals(start)
    start_idx = _locate(start_starts, start_intervals, start_time)
    if start_idx is None:
        return None
    start_state = (start, start_idx)

    edge_reservations = (
        reservations.edge_reservations if reservations is not None else None
    )

    def blocked_move(from_vertex: int, to_vertex: int, arrival: int) -> bool:
        if constraints.violates_edge(agent, from_vertex, to_vertex, arrival):
            return True
        # A swap happens when the opposite move is reserved for the same step.
        return (
            edge_reservations is not None
            and (to_vertex, from_vertex, arrival) in edge_reservations
        )

    arrivals: Dict[Tuple[int, int], int] = {start_state: start_time}
    parents: Dict[Tuple[int, int], Tuple[int, int]] = {}
    closed: Set[Tuple[int, int]] = set()
    open_queue = _BucketQueue()
    open_queue.push(int(h[start]), start_state)

    while True:
        popped = open_queue.pop()
        if popped is None:
            return None
        _, state = popped
        if state in closed:
            continue
        closed.add(state)
        stats.expansions += 1
        if state == goal_state:
            return _reconstruct_sipp(parents, arrivals, state)
        vertex, interval_idx = state
        g_time = arrivals[state]
        interval_end = safe.intervals(vertex)[0][interval_idx][1]
        # The agent may wait anywhere inside its interval before departing;
        # arrivals beyond the horizon cap are pruned.
        earliest = g_time + 1
        latest = min(interval_end + 1, latest_arrival)
        if latest < earliest:
            continue
        for neighbor in floorplan.neighbors(vertex):
            h_neighbor = int(h[neighbor])
            if h_neighbor < 0:
                continue
            nbr_intervals, nbr_starts = safe.intervals(neighbor)
            first = bisect_right(nbr_starts, earliest) - 1
            if first < 0:
                first = 0
            for idx in range(first, len(nbr_intervals)):
                lo, hi = nbr_intervals[idx]
                if lo > latest:
                    break
                arrival = max(earliest, lo)
                bound = min(latest, hi)
                while arrival <= bound and blocked_move(vertex, neighbor, arrival):
                    arrival += 1
                if arrival > bound:
                    continue
                next_state = (neighbor, idx)
                if arrival < arrivals.get(next_state, _INF):
                    arrivals[next_state] = arrival
                    parents[next_state] = state
                    stats.generated += 1
                    open_queue.push(arrival - start_time + h_neighbor, next_state)


def space_time_focal_astar(
    floorplan,
    start: int,
    goal: int,
    agent: int,
    constraints: ConstraintSet,
    other_paths,
    suboptimality: float = 1.5,
    heuristic=None,
    max_timestep: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Tuple[Path, int]]:
    """:func:`repro.mapf.astar.space_time_focal_astar` without its fast paths."""
    h = heuristic_array(floorplan, goal, heuristic)
    if h[start] < 0:
        return None
    stats = stats if stats is not None else SearchStats()
    goal_clear = constraints.latest_vertex_constraint(agent, goal) + 1
    horizon_guard = max_timestep if max_timestep is not None else (
        floorplan.num_vertices * 4 + constraints.latest_constraint_time(agent)
    )
    occupancy = (
        other_paths
        if isinstance(other_paths, Occupancy)
        else Occupancy(other_paths)
    )

    counter = itertools.count()
    start_state = (start, 0)
    g_scores: Dict[Tuple[int, int], int] = {start_state: 0}
    parents: Dict[Tuple[int, int], Tuple[int, int]] = {}
    closed: Set[Tuple[int, int]] = set()

    # Two-structure focal search: unswept nodes live in f-keyed buckets; once
    # the (monotonically growing) threshold w * f_min reaches a bucket, its
    # entries move to the focal heap ordered by (conflicts, f, g).  ``live``
    # counts unexpanded entries per f so f_min is read off a lazily drained
    # key heap without scanning the open list.
    buckets: Dict[int, List] = {}
    sweep_heap: List[int] = []
    fmin_heap: List[int] = []
    live: Dict[int, int] = {}
    focal: List[Tuple[int, int, int, int, Tuple[int, int]]] = []
    lower_bound = int(h[start])
    threshold = suboptimality * lower_bound

    def push(entry, f_value: int) -> None:
        live[f_value] = live.get(f_value, 0) + 1
        heapq.heappush(fmin_heap, f_value)
        if f_value <= threshold:
            heapq.heappush(focal, entry)
        else:
            bucket = buckets.get(f_value)
            if bucket is None:
                buckets[f_value] = [entry]
            else:
                bucket.append(entry)
            heapq.heappush(sweep_heap, f_value)

    push((0, int(h[start]), 0, next(counter), start_state), int(h[start]))

    while True:
        while fmin_heap and live.get(fmin_heap[0], 0) == 0:
            heapq.heappop(fmin_heap)
        if not fmin_heap:
            return None
        fmin = fmin_heap[0]
        if fmin > lower_bound:
            lower_bound = fmin
            threshold = suboptimality * fmin
        while sweep_heap and sweep_heap[0] <= threshold:
            f_key = heapq.heappop(sweep_heap)
            for entry in buckets.pop(f_key, ()):
                heapq.heappush(focal, entry)
        if not focal:
            # Only stale bookkeeping can leave focal empty here; the next
            # iteration drains it via the live counts.
            continue
        conflicts, f_value, g_value, _, state = heapq.heappop(focal)
        live[f_value] -= 1
        if state in closed:
            continue
        closed.add(state)
        vertex, time = state
        stats.expansions += 1
        if vertex == goal and time >= goal_clear:
            return _reconstruct(parents, state), lower_bound
        if time >= horizon_guard:
            continue
        for neighbor in (vertex,) + floorplan.neighbors(vertex):
            next_time = time + 1
            if constraints.violates_vertex(agent, neighbor, next_time):
                continue
            if neighbor != vertex and constraints.violates_edge(
                agent, vertex, neighbor, next_time
            ):
                continue
            h_neighbor = int(h[neighbor])
            if h_neighbor < 0:
                continue
            next_state = (neighbor, next_time)
            tentative = g_value + 1
            if tentative < g_scores.get(next_state, _INF):
                g_scores[next_state] = tentative
                parents[next_state] = state
                extra = occupancy.probe(vertex, neighbor, next_time)
                stats.generated += 1
                push(
                    (
                        conflicts + extra,
                        tentative + h_neighbor,
                        tentative,
                        next(counter),
                        next_state,
                    ),
                    tentative + h_neighbor,
                )


def validate_problem(self) -> None:
    """``MAPFProblem.__post_init__``: every agent checked in turn."""
    seen_starts: Dict[int, int] = {}
    for agent in self.agents:
        for vertex, label in ((agent.start, "start"), (agent.goal, "goal")):
            if not 0 <= vertex < self.floorplan.num_vertices:
                raise MAPFError(
                    f"agent {agent.agent_id}: {label} vertex {vertex} outside the floorplan"
                )
        if agent.start in seen_starts:
            raise MAPFError(
                f"agents {seen_starts[agent.start]} and {agent.agent_id} share start "
                f"vertex {agent.start}"
            )
        seen_starts[agent.start] = agent.agent_id


def table_distance(self, source: int, goal: int) -> int:
    """:meth:`DistanceTables.distance` read off the numpy row."""
    return int(self.table(goal)[source])


_MISSING = object()


@contextmanager
def reference_routing():
    """Route with every oracle above in place of the library's fast path.

    An import site a library version lacks is set for the run and removed
    afterwards.
    """
    saved = {
        (owner, name): getattr(owner, name, _MISSING)
        for owner, name in (
            (astar, "_Occupancy"),
            (ecbs, "_Occupancy"),
            (mapd.IteratedPlanner, "_retreat_target"),
            (routing, "free_flow_cost"),
            (routing, "plan_goal_specs"),
            (routing, "may_collide"),
            (ecbs, "may_collide"),
            (prioritized, "space_time_astar"),
            (cbs, "space_time_astar"),
            (ecbs, "space_time_focal_astar"),
            (prioritized, "agent_row"),
            (cbs, "agent_row"),
            (ecbs, "agent_row"),
            (DistanceTables, "distance"),
            (MAPFProblem, "__post_init__"),
        )
    }
    astar._Occupancy = Occupancy
    ecbs._Occupancy = Occupancy
    mapd.IteratedPlanner._retreat_target = retreat_target
    routing.free_flow_cost = free_flow_cost
    routing.plan_goal_specs = plan_goal_specs
    routing.may_collide = lambda positions: True
    ecbs.may_collide = lambda positions: True
    prioritized.space_time_astar = space_time_astar
    cbs.space_time_astar = space_time_astar
    ecbs.space_time_focal_astar = space_time_focal_astar
    prioritized.agent_row = agent_table
    cbs.agent_row = agent_table
    ecbs.agent_row = agent_table
    DistanceTables.distance = table_distance
    MAPFProblem.__post_init__ = validate_problem
    try:
        yield
    finally:
        for (owner, name), original in saved.items():
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
