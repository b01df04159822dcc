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
* ``len(find_conflicts(paths))`` on every routed run: the installer switches
  the numpy screen off (it always reports a possible collision).

Install them into a run with :func:`reference_routing` (a context manager
patching the library's import sites).  Nothing here is reachable from
``src/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.mapf import astar, ecbs, mapd
from repro.mapf.problem import position_at
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
        )
    }
    astar._Occupancy = Occupancy
    ecbs._Occupancy = Occupancy
    mapd.IteratedPlanner._retreat_target = retreat_target
    routing.free_flow_cost = free_flow_cost
    routing.plan_goal_specs = plan_goal_specs
    routing.may_collide = lambda positions: True
    try:
        yield
    finally:
        for (owner, name), original in saved.items():
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
