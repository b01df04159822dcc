"""Grid-routed execution: replace a plan's abstract motion with MAPF paths.

The abstract digital twin replays a realized plan's (π, φ) matrices verbatim —
agent motion is whatever the co-design realization committed to, and the MAPF
stack is never exercised.  This module closes that gap: it re-derives each
agent's *waypoint sequence* (every vertex where the carried product changes —
the pickups and drop-offs the plan promised) and hands those sequences to a
pluggable MAPF router over the physical :class:`~repro.warehouse.floorplan.
FloorplanGraph`.  The router's collision-free space-time paths become a new
:class:`~repro.warehouse.plan.Plan` the existing executors, station processes
and contract monitors run unchanged — but now the motion is subject to real
congestion: agents queue in aisles, make way for each other, and inflate their
travel time beyond the free-flow optimum.

Routers (:data:`ROUTERS`):

* ``abstract``     — no routing; the plan replays as-is (the PR-1 behaviour);
* ``prioritized``  — cooperative A* per episode (fast, incomplete);
* ``cbs``          — optimal Conflict-Based Search per episode;
* ``ecbs``         — bounded-suboptimal ECBS(w) per episode;
* ``lifelong``     — ECBS with *windowed replanning*: only the first
  ``window`` steps of each episode are committed before replanning
  (RHCR-style rolling horizon; see :class:`~repro.mapf.mapd.IteratedPlanner`).

All grid routers drive the :class:`~repro.mapf.mapd.IteratedPlanner`;
reservation-based collision avoidance (prioritized) or constraint-tree search
(CBS/ECBS) guarantees the stitched paths are vertex- and edge-collision-free.
The router also produces the congestion telemetry the analysis layer reports:
per-edge traversal counts (the edge heatmap), replan episodes, search
expansions, and the *path-length inflation* — routed cost over the free-flow
cost (the sum of single-agent BFS distances along each waypoint chain), the
standard congestion indicator of warehouse digital twins.

By default routed runs are *paced to the plan's timeline*: each waypoint
inherits the tick at which the abstract plan performed the load change as a
release tick, and the lifelong planner dispatches agents so no pickup or
drop-off happens earlier than promised.  Grid motion is typically 2-3x
faster than the abstract plan's (the co-design plan budgets slack per cycle),
and an unpaced routed run compresses a 400-tick plan into ~150 ticks —
inflating every per-period flow rate past what the AG contracts promised and
failing monitors that the abstract replay passes.  Pacing keeps the routed
run on the promised timeline (the routed horizon is also padded to the
plan's), so contract monitoring carries over unchanged; set
``RoutingConfig(pace_to_plan=False)`` for the raw as-fast-as-possible regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mapf.heuristics import distance_tables
from ..mapf.mapd import IteratedPlanner, IteratedPlannerOptions, LifelongTask
from ..mapf.problem import find_conflicts
from ..warehouse.floorplan import FloorplanGraph, VertexId
from ..warehouse.plan import Plan, may_collide
from ..warehouse.products import ProductId
from .routers import ROUTERS

#: Per-episode MAPF engine used for each grid router.
ROUTER_ENGINES = {
    "prioritized": "prioritized",
    "cbs": "cbs",
    "ecbs": "ecbs",
    "lifelong": "ecbs",
}

#: Default commit window of the ``lifelong`` router (ticks per replan).
DEFAULT_LIFELONG_WINDOW = 8

#: One routing goal: ``(vertex, release tick, carry after, corridor)``.
GoalSpec = Tuple[VertexId, int, Optional[ProductId], Optional[frozenset]]


class RoutingError(ValueError):
    """Raised for invalid routing configurations or unroutable plans."""


@dataclass(frozen=True)
class RoutingConfig:
    """How (and whether) agent motion is routed on the grid.

    ``window=0`` means "replan only at goal boundaries" for the one-shot
    routers; the ``lifelong`` router, whose point is windowed replanning,
    falls back to :data:`DEFAULT_LIFELONG_WINDOW` when no window is given.
    Smaller windows track the evolving goal set more closely but solve many
    more episodes; larger windows amortize search at the cost of staler
    commitments.
    """

    router: str = "abstract"
    #: Steps committed per replanning episode (0 = full episodes).
    window: int = 0
    #: ECBS suboptimality factor (ignored by prioritized/cbs engines).
    suboptimality: float = 1.5
    #: Episode cap of the iterated planner (guards livelock).
    max_episodes: int = 10_000
    #: Pace waypoint arrivals to the abstract plan's timeline (see module
    #: docstring).  Disable for the raw as-fast-as-possible regime.
    pace_to_plan: bool = True

    def __post_init__(self) -> None:
        if self.router not in ROUTERS:
            raise RoutingError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.window < 0:
            raise RoutingError(f"window must be non-negative, got {self.window}")
        if self.suboptimality < 1.0:
            raise RoutingError(
                f"suboptimality must be at least 1.0, got {self.suboptimality:g}"
            )
        if self.max_episodes < 1:
            raise RoutingError(f"max_episodes must be positive, got {self.max_episodes}")

    @property
    def is_grid_routed(self) -> bool:
        return self.router != "abstract"

    @property
    def engine(self) -> str:
        """The per-episode MAPF engine (raises for the abstract mode)."""
        if not self.is_grid_routed:
            raise RoutingError("the abstract mode has no MAPF engine")
        return ROUTER_ENGINES[self.router]

    @property
    def effective_window(self) -> Optional[int]:
        """The commit window actually handed to the iterated planner."""
        if self.window > 0:
            return self.window
        if self.router == "lifelong":
            return DEFAULT_LIFELONG_WINDOW
        return None

    def describe(self) -> str:
        if not self.is_grid_routed:
            return "abstract"
        window = self.effective_window
        detail = f"window={window}" if window is not None else "per-goal episodes"
        return f"{self.router} (engine={self.engine}, {detail})"


@dataclass
class RoutingReport:
    """Everything one grid-routing pass produced, beyond the routed plan."""

    router: str
    engine: str
    window: Optional[int]
    completed: bool
    goals_completed: int
    goals_total: int
    #: Solver episodes — each one is a (re)planning event.
    replans: int
    #: Low-level search node expansions across all episodes.
    expansions: int
    #: Residual vertex/edge conflicts in the routed paths (0 when sound).
    conflicts: int
    #: Sum over agents of ticks until their last completed waypoint (agents
    #: with unfinished goals contribute their whole traversal).  Trailing
    #: rest ticks after an agent's final waypoint are excluded, so the cost
    #: reflects congestion (waits, detours) — not workload imbalance padding.
    routed_cost: int
    #: Sum over agents of the free-flow cost (BFS distance along waypoints).
    free_flow_cost: int
    #: Load changes that could not be replayed onto the routed paths
    #: (degenerate same-tick waypoint corners; 0 on real plans).
    carry_mismatches: int
    #: Undirected per-edge traversal counts: ``{(u, v): crossings}`` (u < v).
    edge_traversals: Dict[Tuple[VertexId, VertexId], int] = field(default_factory=dict)
    #: Why the lifelong run ended: "completed", or the truncation reason
    #: ("stalled" | "episode_limit" | "time_limit").
    status: str = "completed"
    #: Sum over completed legs of ``arrival - dispatch`` ticks — pure travel
    #: plus congestion waits, excluding release-pacing idle time.  Under
    #: pacing this (not ``routed_cost``, which absorbs planned waiting) is
    #: the congestion signal.
    leg_travel_cost: int = 0

    @property
    def truncated(self) -> bool:
        """True when routing ended before serving every waypoint."""
        return not self.completed

    @property
    def inflation(self) -> float:
        """Routed / free-flow cost (1.0 = congestion-free; 0.0 = undefined)."""
        if self.free_flow_cost <= 0 or not self.completed:
            return 0.0
        return self.routed_cost / self.free_flow_cost

    @property
    def max_edge_load(self) -> int:
        return max(self.edge_traversals.values(), default=0)

    @property
    def mean_edge_load(self) -> float:
        if not self.edge_traversals:
            return 0.0
        return float(np.mean(list(self.edge_traversals.values())))

    def busiest_edges(self, count: int = 5) -> List[Tuple[VertexId, VertexId, int]]:
        """The ``count`` most-traversed edges as ``(u, v, crossings)``."""
        ranked = sorted(
            self.edge_traversals.items(), key=lambda item: (-item[1], item[0])
        )
        return [(u, v, crossings) for (u, v), crossings in ranked[:count]]

    def summary(self) -> str:
        status = "completed" if self.completed else f"TRUNCATED ({self.status})"
        inflation = f"{self.inflation:.3f}" if self.inflation else "n/a"
        return (
            f"routing [{self.router}]: {status}, "
            f"{self.goals_completed}/{self.goals_total} waypoints, "
            f"{self.replans} replans, {self.expansions} expansions, "
            f"inflation {inflation} "
            f"(routed {self.routed_cost} vs free-flow {self.free_flow_cost}), "
            f"max edge load {self.max_edge_load}"
        )


# ---------------------------------------------------------------------------
# waypoint extraction
# ---------------------------------------------------------------------------

def plan_waypoints(plan: Plan, with_ticks: bool = False) -> List[List[Tuple]]:
    """Per agent, the ordered load-change events as ``(vertex, carry_after)``.

    A waypoint is recorded at every vertex where the agent's carried product
    changes (the paper's condition (3): the change at ``t + 1`` is decided at
    the vertex occupied at ``t``).  Unlike
    :func:`~repro.mapf.mapd.goal_sequences_from_plan`, consecutive events at
    the same vertex are *not* collapsed — the carry reconstruction needs every
    individual event.

    With ``with_ticks=True`` each event is ``(vertex, carry_after, tick)``
    where ``tick`` is the decision tick ``t`` — the release tick pacing pins
    the routed arrival to.
    """
    events: List[List[Tuple]] = []
    for agent in range(plan.num_agents):
        carrying = plan.carrying[agent]
        positions = plan.positions[agent]
        agent_events: List[Tuple] = []
        for t in range(plan.horizon - 1):
            if carrying[t + 1] != carrying[t]:
                if with_ticks:
                    agent_events.append((int(positions[t]), int(carrying[t + 1]), t))
                else:
                    agent_events.append((int(positions[t]), int(carrying[t + 1])))
        events.append(agent_events)
    return events


def plan_goal_specs(plan: Plan, system=None) -> List[List[GoalSpec]]:
    """Per agent, the ordered routing goals: ``(vertex, release, carry, corridor)``.

    Always contains the load-change waypoints (``carry`` = the product carried
    after the change).  When a :class:`~repro.traffic.system.TrafficSystem` is
    given, the plan's *component-entry* vertices are interleaved as breadcrumb
    goals (``carry=None``): the first vertex the plan holds inside each
    component it visits, released at the plan tick of that entry.  Each goal
    then also carries a *corridor* — the union of the vertices of every
    component (plus any unowned cells) the plan traverses on that leg; the
    router confines the leg's motion to it.

    Breadcrumbs pin the routed motion to the plan's component-level circuit
    and corridors keep it there — without them a shortest-path router cuts
    across component boundaries the flow synthesis never promised traffic on
    (e.g. straight backward from a serpentine into its station instead of
    around the one-way loop), and the contract monitor correctly flags the
    unpromised flows.

    Owners are read from a vertex-to-component array, and a corridor is built
    only at the tick of its goal.
    """
    changed = plan.carrying[:, 1:] != plan.carrying[:, :-1]
    if system is not None:
        comp_vertices = [component.vertices for component in system.components]
        owners = np.full(plan.warehouse.floorplan.num_vertices, -1, dtype=np.int64)
        for index, vertices in enumerate(comp_vertices):
            owners[list(vertices)] = index
        owned = owners[plan.positions]
        entered = (owned[:, 1:] >= 0) & (owned[:, 1:] != owned[:, :-1])
    specs: List[List[GoalSpec]] = []
    for agent in range(plan.num_agents):
        positions = plan.positions[agent]
        carrying = plan.carrying[agent]
        changes = np.flatnonzero(changed[agent]).tolist()
        if system is None:
            specs.append(
                [(int(positions[t]), t, int(carrying[t + 1]), None) for t in changes]
            )
            continue
        agent_owned = owned[agent]

        def corridor(first: int, stop: int) -> set:
            """Unowned cells and owning components' vertices of ticks [first, stop)."""
            leg = agent_owned[first:stop]
            allowed = set(positions[first:stop][leg < 0].tolist())
            for index in np.unique(leg[leg >= 0]).tolist():
                allowed.update(comp_vertices[index])
            return allowed

        entries = set((np.flatnonzero(entered[agent]) + 1).tolist())
        out: List[GoalSpec] = []
        # Each leg's corridor starts at the previous goal's position.
        leg_start = 0
        for t in sorted(entries.union(changes)):
            vertex = int(positions[t])
            carry = (
                int(carrying[t + 1])
                if t < plan.horizon - 1 and changed[agent, t]
                else None
            )
            if t in entries:
                # Entry breadcrumb.  Its corridor deliberately excludes the
                # entered component's interior — only the entry vertex itself
                # is admitted.  Were the whole component included, the router
                # could slip across any physically-adjacent border between the
                # previous component and the new one instead of crossing at
                # the promised vertex, producing component transitions the
                # traffic graph never licensed.  A load change on the same
                # tick rides on the breadcrumb.
                allowed = corridor(leg_start, t)
                allowed.add(vertex)
            else:
                allowed = corridor(leg_start, t + 1)
            out.append((vertex, t, carry, frozenset(allowed)))
            leg_start = t
        specs.append(out)
    return specs


def free_flow_cost(
    floorplan: FloorplanGraph, start: VertexId, goals: Tuple[VertexId, ...]
) -> int:
    """Single-agent BFS cost of visiting ``goals`` in order from ``start``.

    This is the congestion-free lower bound a solo agent would achieve; the
    routed cost divided by this is the path-length inflation.  Distances come
    from the floorplan's shared distance tables (one row per goal vertex).
    """
    tables = distance_tables(floorplan)
    total = 0
    current = start
    for goal in goals:
        distance = tables.distance(current, goal)
        if distance < 0:
            raise RoutingError(
                f"waypoint {goal} is unreachable from vertex {current}"
            )
        total += distance
        current = goal
    return total


def edge_traversal_counts(
    paths: Tuple[Tuple[VertexId, ...], ...]
) -> Dict[Tuple[VertexId, VertexId], int]:
    """Undirected per-edge crossing counts over a set of routed paths."""
    counts: Dict[Tuple[VertexId, VertexId], int] = {}
    for path in paths:
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def edge_load_by_vertex(
    num_vertices: int, edge_traversals: Dict[Tuple[VertexId, VertexId], int]
) -> np.ndarray:
    """Per-vertex sum of incident edge crossings (the edge heatmap's raster)."""
    load = np.zeros(num_vertices, dtype=np.int64)
    for (u, v), crossings in edge_traversals.items():
        load[u] += crossings
        load[v] += crossings
    return load


# ---------------------------------------------------------------------------
# routing a realized plan
# ---------------------------------------------------------------------------

def route_plan(
    plan: Plan, config: RoutingConfig, system=None
) -> Tuple[Plan, RoutingReport]:
    """Route a realized plan's waypoints on the grid; return the routed plan.

    The routed plan preserves the original's *logistics* (every agent picks
    up and drops off the same products at the same vertices, in the same
    order) but replaces its *motion* with MAPF paths over the full floorplan.
    The result is a structurally valid :class:`~repro.warehouse.plan.Plan`
    (collision-free, unit moves, condition-(3) load changes) that the
    abstract executors run unchanged.

    Passing the plan's :class:`~repro.traffic.system.TrafficSystem` (the
    runner does) additionally pins paced routing to the plan's component
    circuit via breadcrumb goals — see :func:`plan_goal_specs`.
    """
    if not config.is_grid_routed:
        raise RoutingError("route_plan requires a grid router, not 'abstract'")
    floorplan = plan.warehouse.floorplan
    specs = plan_goal_specs(plan, system if config.pace_to_plan else None)

    tasks = [
        LifelongTask(
            agent_id=agent,
            start=int(plan.positions[agent, 0]),
            goals=tuple(vertex for vertex, _, _, _ in specs[agent]),
            releases=(
                tuple(tick for _, tick, _, _ in specs[agent])
                if config.pace_to_plan
                else ()
            ),
            corridors=(
                tuple(corridor for _, _, _, corridor in specs[agent])
                if config.pace_to_plan and system is not None
                else ()
            ),
        )
        for agent in range(plan.num_agents)
    ]
    planner = IteratedPlanner(
        floorplan,
        IteratedPlannerOptions(
            engine=config.engine,
            suboptimality=config.suboptimality,
            max_episodes=config.max_episodes,
            commit_window=config.effective_window,
        ),
    )
    result = planner.solve(tasks)

    # -- load-change schedule: each waypoint's change lands at arrival + 1 ----
    # Condition (3): the change at t+1 is decided at the vertex held at t,
    # i.e. the arrival tick.  Degenerate same-tick arrivals (consecutive
    # waypoints at one vertex completing in zero-move episodes) are pushed
    # one tick later each.
    schedules: List[List[Tuple[int, VertexId, ProductId]]] = []
    for agent in range(plan.num_agents):
        arrivals = result.goal_arrivals[agent] if result.goal_arrivals else ()
        schedule: List[Tuple[int, VertexId, ProductId]] = []
        previous_change = 0
        for (vertex, _, carry_after, _), arrival in zip(specs[agent], arrivals):
            if carry_after is None:
                continue  # corridor breadcrumb, not a load change
            change_at = max(arrival + 1, previous_change + 1)
            schedule.append((change_at, vertex, carry_after))
            previous_change = change_at
        schedules.append(schedule)

    # -- positions: routed paths, padded to a common horizon (agents rest).
    # The horizon covers every path AND every scheduled change (a waypoint
    # reached on an agent's final tick still needs its t+1 to exist).  Paced
    # runs additionally pad to the abstract plan's horizon so the contract
    # monitors measure per-period rates over the same timeline the plan
    # promised them on.
    horizon = max(
        2,
        plan.horizon if config.pace_to_plan else 2,
        max((len(path) for path in result.paths), default=2),
        max(
            (schedule[-1][0] + 1 for schedule in schedules if schedule),
            default=2,
        ),
    )
    positions = np.empty((plan.num_agents, horizon), dtype=np.int64)
    for agent, path in enumerate(result.paths):
        padded = list(path) + [path[-1]] * (horizon - len(path))
        positions[agent] = padded

    # -- carrying: replay each scheduled load change onto the routed motion ---
    carrying = np.empty((plan.num_agents, horizon), dtype=np.int64)
    carrying[:, :] = plan.carrying[:, 0].reshape(-1, 1)
    carry_mismatches = 0
    for agent, schedule in enumerate(schedules):
        for change_at, vertex, carry_after in schedule:
            if int(positions[agent, change_at - 1]) != vertex:
                carry_mismatches += 1
                continue
            carrying[agent, change_at:] = carry_after

    routed = Plan(
        positions=positions,
        carrying=carrying,
        warehouse=plan.warehouse,
        metadata={**plan.metadata, "grid_routed": 1.0},
    )

    # -- telemetry -------------------------------------------------------------
    free_total = sum(free_flow_cost(floorplan, task.start, task.goals) for task in tasks)
    # Per-agent routed cost: ticks to the last completed waypoint.  The
    # stitched paths all share one padded length (everyone commits the same
    # ticks per episode), so summing raw lengths would measure
    # num_agents × makespan — workload imbalance, not congestion.
    routed_total = 0
    leg_travel_total = 0
    for agent, task in enumerate(tasks):
        arrivals = result.goal_arrivals[agent] if result.goal_arrivals else ()
        if task.goals and len(arrivals) == len(task.goals):
            routed_total += arrivals[-1]
        elif task.goals:
            routed_total += len(result.paths[agent]) - 1
        starts = result.leg_starts[agent] if result.leg_starts else ()
        leg_travel_total += sum(
            arrival - start for arrival, start in zip(arrivals, starts)
        )
    report = RoutingReport(
        router=config.router,
        engine=config.engine,
        window=config.effective_window,
        completed=result.completed,
        goals_completed=result.goals_completed,
        goals_total=result.goals_total,
        replans=result.episodes,
        expansions=result.expansions,
        # The padded positions repeat each path's last vertex, as
        # find_conflicts does, so a clean screen means no conflicts.
        conflicts=len(find_conflicts(result.paths)) if may_collide(positions) else 0,
        routed_cost=routed_total,
        free_flow_cost=free_total,
        carry_mismatches=carry_mismatches,
        edge_traversals=edge_traversal_counts(result.paths),
        status=result.status,
        leg_travel_cost=leg_travel_total,
    )
    return routed, report
