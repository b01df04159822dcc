"""Realizing an agent cycle set as a discrete plan (Sec. IV-C, Algorithm 1).

Every component moves the agents it contains toward its exit, one cell per
move.  Each timestep has two phases:

1. once per cycle period, the agent at a component's exit may advance to the
   entry of the next component of its agent cycle, if that entry was free at
   the start of the timestep, no other advance claimed it, and the next
   component has admitted fewer than its capacity of agents this period;
2. every other agent moves one cell on, front first, into a cell that was
   free at the start of the timestep or that the agent ahead of it left in
   this same timestep — a train of agents in a component moves up together.
   No cell is entered twice, and an exit left by an advance stays blocked
   until the next timestep.

Agents never meet head-on, so moves can never collide or swap.  With cycle
time ``tc = 2m`` (``m`` = longest component) and no component loaded beyond
``⌊|Ci|/2⌋`` cycle positions, every agent advances exactly one component per
period (Property 4.1) — the realizer verifies this at every period boundary.

Property 4.1 makes the motion periodic, so the realizer simulates it
timestep by timestep only until the state at a period boundary repeats
(typically within two periods) and tiles that window to the horizon.  Motion
never depends on what agents carry; the loads are replayed afterwards, only
at the arrivals where an agent's pending pickup or drop-off can succeed.

Pickups and drop-offs happen while an agent traverses a component with a
pickup / drop-off action: a pickup grabs the next product from the shelving
row's :class:`~repro.core.agent_cycles.DeliverySchedule` at the first
traversed cell that stocks it; a drop-off hands the carried product over at
the first station cell.  With ``preload_agents`` (the default) agents that
start on the loaded segment of their cycle begin the plan already carrying a
scheduled product, so every cycle delivers from the very first period; the
paper leaves these start-up details unspecified (see DESIGN.md).

The output is a full ``(π, φ)`` :class:`~repro.warehouse.plan.Plan`, which the
independent :class:`~repro.warehouse.plan.PlanValidator` checks against the
three feasibility conditions of Sec. III.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..deadline import current_deadline
from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.plan import Plan
from ..warehouse.products import EMPTY_HANDED, ProductId
from .agent_cycles import AgentCycle, AgentCycleSet, DeliverySchedule


class RealizationError(RuntimeError):
    """Raised when an agent cycle set cannot be realized as promised."""


@dataclass(frozen=True)
class RealizationOptions:
    """Knobs of the realization stage."""

    #: Start agents on the loaded segment of their cycle already carrying a
    #: scheduled product.
    preload_agents: bool = True
    #: Raise when an agent fails to advance one component within a period
    #: (Property 4.1 violation); with False the violation is only counted.
    strict_periods: bool = True


@dataclass
class _AgentState:
    """Mutable runtime state of one agent."""

    agent_id: int
    cycle: AgentCycle
    position: int
    component: ComponentId
    vertex: int
    carrying: ProductId
    action_done: bool
    advance_t: int = -1


@dataclass
class RealizationResult:
    """The realized plan plus bookkeeping for reports and tests."""

    plan: Plan
    cycle_set: AgentCycleSet
    deliveries: Dict[ProductId, int]
    pickups: Dict[ProductId, int]
    property41_violations: int

    @property
    def total_delivered(self) -> int:
        return sum(self.deliveries.values())

    def summary(self) -> str:
        return (
            f"realized plan: {self.plan.num_agents} agents, {self.plan.horizon} timesteps, "
            f"{self.total_delivered} units delivered, "
            f"{self.property41_violations} Property-4.1 violations"
        )


def realize_cycle_set(
    cycle_set: AgentCycleSet,
    schedule: DeliverySchedule,
    options: Optional[RealizationOptions] = None,
) -> RealizationResult:
    """Run the component-timestep algorithm and produce a concrete plan."""
    options = options or RealizationOptions()
    system = cycle_set.system
    warehouse = system.warehouse
    cycle_set.validate()

    schedule = schedule.copy()
    stock = warehouse.stock.copy()
    agents = _place_agents(cycle_set, schedule, stock, options)
    cycle_time = cycle_set.cycle_time
    periods = cycle_set.num_periods
    horizon = periods * cycle_time + 1

    # Motion never reads what agents carry, so it is realized first (from a
    # snapshot of the start state) and the loads are replayed over it.
    start = [(a.position, a.carrying, a.action_done) for a in agents]
    positions, advances, violations = _realize_motion(
        system, agents, cycle_time, horizon, options.strict_periods
    )
    carrying, deliveries, pickups = _replay_actions(
        agents, start, positions, advances, schedule, stock, warehouse.station_vertices
    )

    plan = Plan(
        positions=positions,
        carrying=carrying,
        warehouse=warehouse,
        metadata={
            "cycle_time": float(cycle_time),
            "num_periods": float(periods),
            "num_cycles": float(cycle_set.num_cycles),
        },
    )
    return RealizationResult(
        plan=plan,
        cycle_set=cycle_set,
        deliveries=deliveries,
        pickups=pickups,
        property41_violations=violations,
    )


# ---------------------------------------------------------------------------
# motion (Phases 1-2)
# ---------------------------------------------------------------------------

def _realize_motion(
    system: TrafficSystem,
    agents: List[_AgentState],
    cycle_time: int,
    horizon: int,
    strict_periods: bool,
) -> Tuple[np.ndarray, List[List[Tuple[int, int]]], int]:
    """Move the agents until their motion repeats, then tile it to the horizon.

    Returns the ``(agents, horizon)`` position matrix, the ``(agent, cycle
    position)`` advances of every tick in component order, and the
    Property-4.1 violation count.  At a period boundary the future motion is
    a function of each agent's vertex, cycle position and whether it already
    advanced on the previous period's last tick (that advance counts toward
    the new period).  Once that key repeats an earlier boundary's, the window
    between the two boundaries repeats to the horizon, lag counts included.
    """
    components = system.components
    exits = [component.exit for component in components]
    #: The vertex after each component vertex on the way to its exit (None at
    #: the exit); components are disjoint, so one table serves them all.
    next_of: Dict[int, Optional[int]] = {}
    for component in components:
        path = component.vertices
        next_of.update(zip(path, path[1:] + (None,)))
    #: Each component's agents, front (nearest the exit) first.  Agents never
    #: overtake inside a component and an entrant joins at the entry, behind
    #: everyone, so the order holds without re-sorting.
    members_of: List[List[_AgentState]] = [[] for _ in components]
    for agent in agents:
        members_of[agent.component].append(agent)
    for component, members in zip(components, members_of):
        members.sort(key=lambda a: component.position_of(a.vertex), reverse=True)

    columns = [[agent.vertex for agent in agents]]
    advances: List[List[Tuple[int, int]]] = []
    entered_this_period = [0] * len(components)
    lagging_at: Dict[int, int] = {}
    boundary_of: Dict[tuple, int] = {}
    repeat: Optional[Tuple[int, int]] = None
    deadline = current_deadline()

    for t in range(horizon - 1):
        period_start = (t // cycle_time) * cycle_time
        if t % cycle_time == 0:
            if deadline is not None:
                deadline.check()
            if t > 0:
                entered_this_period = [0] * len(components)
                lagging = [a for a in agents if a.advance_t < t - cycle_time]
                lagging_at[t] = len(lagging)
                if lagging and strict_periods:
                    names = ", ".join(
                        f"agent {a.agent_id} in {system.component(a.component).name}"
                        for a in lagging[:5]
                    )
                    raise RealizationError(
                        f"Property 4.1 violated at t={t}: {len(lagging)} agent(s) did not "
                        f"advance during the last period ({names}); "
                        "retry with a larger cycle_time_factor"
                    )
            key = tuple((a.vertex, a.position, a.advance_t >= t) for a in agents)
            first = boundary_of.setdefault(key, t)
            if first != t:
                repeat = (first, t)
                break

        occupied = {agent.vertex for agent in agents}
        claimed: set = set()
        advanced: List[Tuple[int, int]] = []

        # Phase 1 — cross-component advances (one eligible front agent per component).
        for members, exit_vertex in zip(members_of, exits):
            if not members:
                continue
            front = members[0]
            if front.vertex != exit_vertex or front.advance_t >= period_start:
                continue
            next_position = (front.position + 1) % front.cycle.length
            next_component_id = front.cycle.components[next_position]
            next_component = components[next_component_id]
            entry = next_component.entry
            if entry in occupied or entry in claimed:
                continue
            if entered_this_period[next_component_id] >= next_component.capacity:
                continue
            del members[0]
            members_of[next_component_id].append(front)
            front.component = next_component_id
            front.position = next_position
            front.vertex = entry
            front.advance_t = t + 1
            advanced.append((front.agent_id, next_position))
            claimed.add(entry)
            entered_this_period[next_component_id] += 1

        # Phase 2 — in-component moves for everyone that did not advance,
        # front first, so a train moves up together.
        for members in members_of:
            for agent in members:
                if agent.advance_t == t + 1:
                    continue  # advanced across components this very timestep
                next_vertex = next_of[agent.vertex]
                if (
                    next_vertex is not None
                    and next_vertex not in occupied
                    and next_vertex not in claimed
                ):
                    claimed.add(next_vertex)
                    occupied.discard(agent.vertex)
                    agent.vertex = next_vertex

        columns.append([agent.vertex for agent in agents])
        advances.append(advanced)

    realized = np.array(columns, dtype=np.int64).T
    violations = sum(lagging_at.values())
    if repeat is None:
        return realized, advances, violations

    first, again = repeat
    length = again - first
    source = np.arange(horizon)
    tiled = source > again
    source[tiled] = first + (source[tiled] - first) % length
    advances += [advances[first + (t - first) % length] for t in range(again, horizon - 1)]
    # A boundary past the window lags like its copy in (first, again]: the
    # copy's previous period lies inside the repeating motion too.
    for boundary in range(again + cycle_time, horizon - 1, cycle_time):
        copy = boundary - length * -(-(boundary - again) // length)
        violations += lagging_at[copy]
    return realized[:, source], advances, violations


# ---------------------------------------------------------------------------
# loads (Phase 0 and the delivery schedule)
# ---------------------------------------------------------------------------

def _replay_actions(
    agents: List[_AgentState],
    start: List[Tuple[int, ProductId, bool]],
    positions: np.ndarray,
    advances: List[List[Tuple[int, int]]],
    schedule: DeliverySchedule,
    stock,
    stations,
) -> Tuple[np.ndarray, Dict[ProductId, int], Dict[ProductId, int]]:
    """Pickups, drop-offs and schedule pops over realized motion.

    Phase 0 is decided at the time-t vertex and recorded at t + 1 (the
    paper's condition (3) constrains φ_{t+1} by π_t: a product is picked from
    the shelf the agent stands next to *before* moving).  It only ever
    changes state for an agent with a pending action — an empty-handed agent
    holding a scheduled product on a pickup row, or a loaded agent on a
    drop-off row — at a cell where that action can succeed: a station cell,
    or a cell still stocking the target product.  Stations are fixed and
    stock only shrinks, so a cell that cannot serve the action now cannot
    serve it later either.  Each such agent is therefore checked only at its
    next arrival at a cell that can, scanning no further than its next
    advance (which schedules afresh for the next component).  Checks run in
    Algorithm 1's (tick, agent id) order, since stock and the delivery
    queues are shared.
    """
    num_agents, horizon = positions.shape
    arrived = np.ones((num_agents, horizon), dtype=bool)
    arrived[:, 1:] = positions[:, 1:] != positions[:, :-1]
    #: Per agent, the ticks it occupies a new vertex (tick 0 first) and those
    #: vertices.
    arrivals = []
    for agent, row in enumerate(arrived):
        ticks = np.flatnonzero(row)
        arrivals.append((ticks.tolist(), positions[agent, ticks].tolist()))
    #: Per agent, the ticks it advances into its next component.
    advance_ticks: List[List[int]] = [[] for _ in range(num_agents)]
    for t, advanced in enumerate(advances):
        for agent, _ in advanced:
            advance_ticks[agent].append(t)
    units = stock.as_array().tolist()

    cycles = [agent.cycle for agent in agents]
    position = [p for p, _, _ in start]
    carry = [c for _, c, _ in start]
    advanced_so_far = [0] * num_agents
    #: Product each agent was assigned when it entered its current shelving
    #: row (popped from the row's delivery schedule), until it picks it.
    target: List[Optional[ProductId]] = [None] * num_agents
    #: Per tick, the (agent, arrival index) checks due; an agent has at most
    #: one pending, never past its next advance.
    checks: Dict[int, List[Tuple[int, int]]] = {}

    def schedule_check(agent: int, index: int) -> None:
        """Check ``agent`` at its first arrival from ``index`` on where its
        pending action can succeed, before its next advance."""
        action = cycles[agent].actions[position[agent]]
        if action is None:
            return
        if action.is_pickup:
            if carry[agent] != EMPTY_HANDED or target[agent] is None:
                return
        elif carry[agent] == EMPTY_HANDED:
            return
        ticks, vertices = arrivals[agent]
        upcoming = advance_ticks[agent]
        done = advanced_so_far[agent]
        # The load change of the last tick falls outside the plan.
        limit = min(upcoming[done], horizon - 2) if done < len(upcoming) else horizon - 2
        end = bisect_right(ticks, limit)
        if action.is_pickup:
            stocked = units[target[agent]]
            hit = next((i for i in range(index, end) if stocked[vertices[i]] > 0), None)
        else:
            hit = next((i for i in range(index, end) if vertices[i] in stations), None)
        if hit is not None:
            checks.setdefault(ticks[hit], []).append((agent, hit))

    for agent, (_, _, action_done) in enumerate(start):
        if not action_done:
            schedule_check(agent, 0)

    deliveries: Dict[ProductId, int] = {}
    pickups: Dict[ProductId, int] = {}
    changes: List[Tuple[int, int, int]] = []  # (agent, tick, load delta)
    for t in range(horizon - 1):
        due = checks.pop(t, None)
        if due:
            for agent, index in sorted(due):
                vertex = arrivals[agent][1][index]
                if cycles[agent].actions[position[agent]].is_pickup:
                    product = target[agent]
                    if units[product][vertex] <= 0:  # picked empty since scheduled
                        schedule_check(agent, index + 1)
                        continue
                    units[product][vertex] -= 1
                    carry[agent] = product
                    target[agent] = None
                    pickups[product] = pickups.get(product, 0) + 1
                    changes.append((agent, t + 1, product))
                else:  # scheduled at station cells only
                    product = carry[agent]
                    deliveries[product] = deliveries.get(product, 0) + 1
                    carry[agent] = EMPTY_HANDED
                    changes.append((agent, t + 1, -product))
        for agent, cycle_position in advances[t]:
            position[agent] = cycle_position
            advanced_so_far[agent] += 1
            action = cycles[agent].actions[cycle_position]
            if action is not None and action.is_pickup and carry[agent] == EMPTY_HANDED:
                # Commit the next scheduled unit of this shelving row to the
                # entering agent; it will grab it at the first stocked cell it
                # traverses (FIFO consumption of the delivery schedule).
                target[agent] = schedule.next_product(cycles[agent].components[cycle_position])
            schedule_check(agent, bisect_left(arrivals[agent][0], t + 1))

    deltas = np.zeros((num_agents, horizon), dtype=np.int64)
    deltas[:, 0] = [c for _, c, _ in start]
    if changes:
        rows, ticks, values = zip(*changes)
        deltas[list(rows), list(ticks)] = values
    return np.cumsum(deltas, axis=1), deliveries, pickups


# ---------------------------------------------------------------------------
# initial placement
# ---------------------------------------------------------------------------

def _place_agents(
    cycle_set: AgentCycleSet,
    schedule: DeliverySchedule,
    stock,
    options: RealizationOptions,
) -> List[_AgentState]:
    """Place one agent per cycle position, spaced out within each component.

    Within a component the agents are parked every other cell starting from the
    exit, which both respects the ⌊|Ci|/2⌋ load bound and lets the front agent
    advance immediately in the first period.
    """
    system = cycle_set.system
    slots: Dict[ComponentId, List[Tuple[AgentCycle, int]]] = {}
    for cycle in cycle_set.cycles:
        for position, component in enumerate(cycle.components):
            slots.setdefault(component, []).append((cycle, position))

    agents: List[_AgentState] = []
    for component_id, component_slots in sorted(slots.items()):
        component = system.component(component_id)
        if len(component_slots) > component.capacity:
            raise RealizationError(
                f"component {component.name!r} hosts {len(component_slots)} cycle positions "
                f"but has capacity {component.capacity}"
            )
        for slot_index, (cycle, position) in enumerate(component_slots):
            vertex_index = component.length - 1 - 2 * slot_index
            vertex = component.vertices[vertex_index]
            carrying, action_done = _initial_load(
                system, cycle, position, schedule, stock, options
            )
            agents.append(
                _AgentState(
                    agent_id=len(agents),
                    cycle=cycle,
                    position=position,
                    component=component_id,
                    vertex=vertex,
                    carrying=carrying,
                    action_done=action_done,
                )
            )
    return agents


def _initial_load(
    system: TrafficSystem,
    cycle: AgentCycle,
    position: int,
    schedule: DeliverySchedule,
    stock,
    options: RealizationOptions,
) -> Tuple[ProductId, bool]:
    """Initial carried product and action state for the agent at a cycle position.

    Agents on the loaded segment (between a pickup and the following drop-off)
    start carrying the next product scheduled at their segment's pickup row;
    the corresponding unit is deducted from that row's stock so the location
    matrix stays consistent.  The agent parked on the drop-off component starts
    loaded with its action still pending, so the first delivery happens in
    period 1.
    """
    if not options.preload_agents:
        return EMPTY_HANDED, False
    action = cycle.actions[position]
    loaded = cycle.is_loaded_at(position)
    if action is not None and action.is_dropoff:
        product = _preload_from_schedule(system, cycle, position, schedule, stock)
        if product is not None:
            return product, False
        return EMPTY_HANDED, False
    if loaded:
        product = _preload_from_schedule(system, cycle, position, schedule, stock)
        if product is not None:
            return product, True
        return EMPTY_HANDED, True
    if action is not None and action.is_pickup:
        # The agent parked on the pickup row counts as having already picked
        # up this period (its unit is the preload of the agent downstream).
        return EMPTY_HANDED, True
    return EMPTY_HANDED, True


def _preload_from_schedule(
    system: TrafficSystem,
    cycle: AgentCycle,
    position: int,
    schedule: DeliverySchedule,
    stock,
) -> Optional[ProductId]:
    """Take the next scheduled product of the segment's pickup row, consuming stock."""
    pickup_position = cycle.preceding_pickup(position)
    row = cycle.components[pickup_position]
    queue = schedule.queues.get(row)
    if not queue:
        return None
    product = queue[0]
    # A preload represents a pickup performed just before the plan starts, so
    # it must be backed by actual stock on the pickup row; otherwise the unit
    # stays in the queue for a regular (possibly never happening) pickup.
    for vertex in system.component(row).vertices:
        if stock.units_at(product, vertex) > 0:
            stock.remove(product, vertex, 1)
            queue.pop(0)
            return product
    return None
