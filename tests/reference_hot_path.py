"""Reference oracles for the small-scale hot path: the tick-by-tick loops.

The library realizes, validates and replays plans in time proportional to
their *events* (periodic motion tiled once it repeats, numpy screens ahead of
the per-cell checks, engine events only at ticks where something happens).
The straightforward loops below are the semantics those fast paths must
reproduce byte for byte; the equivalence tests run both and compare:

* :func:`realize_cycle_set` — Algorithm 1 simulated timestep by timestep,
  every agent in every tick (pickups/drop-offs, cross-component advances,
  in-component moves);
* :class:`PlanValidator` — the three feasibility conditions checked cell by
  cell;
* :func:`plan_deliveries` — :meth:`Plan.deliveries` as a double loop;
* :class:`PlanExecutor` — one engine event per tick stepping every agent and
  sampling the visit counts column by column;
* :func:`track_queues` — every station's queue length sampled at the end of
  every tick (an ``every(1)`` event in the telemetry band) into per-tick
  arrays, where the library's stations report it only at hand-offs and
  service completions and the trace carries each report forward;
* :func:`attach_monitor` — the live capacity check counting each component's
  entries from the recorder's transition table at every period boundary,
  where the library tallies them as transitions are recorded;
* :func:`pending_legs` and :func:`is_idle` — a broken-down agent's
  transferable delivery legs and whether a helper has load changes left,
  found by reading every plan step from the agent's position on, where the
  resilient executor visits only the steps at which its load changes.

Install the replay oracles into a run with :func:`reference_replay` (a
context manager patching the runner's import sites).  Nothing here is
reachable from ``src/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from repro.core.realization import (
    RealizationError,
    RealizationOptions,
    RealizationResult,
    _AgentState,
    _place_agents,
)
from repro.sim import monitors as sim_monitors
from repro.sim import runner as sim_runner
from repro.sim.agents import ExecutionError
from repro.sim.engine import PRIORITY_AGENTS, PRIORITY_MONITORS, PRIORITY_TELEMETRY
from repro.sim.telemetry import TraceRecorder
from repro.sim.monitors import LIVE_CAPACITY, MonitorViolation
from repro.warehouse.plan import Plan, PlanValidationReport, PlanViolation
from repro.warehouse.products import EMPTY_HANDED


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def realize_cycle_set(cycle_set, schedule, options=None) -> RealizationResult:
    """Algorithm 1, every agent in every timestep."""
    options = options or RealizationOptions()
    system = cycle_set.system
    warehouse = system.warehouse
    cycle_set.validate()

    schedule = schedule.copy()
    stock = warehouse.stock.copy()
    agents: List[_AgentState] = _place_agents(cycle_set, schedule, stock, options)
    for agent in agents:
        agent.target_product = None
    num_agents = len(agents)
    cycle_time = cycle_set.cycle_time
    periods = cycle_set.num_periods
    horizon = periods * cycle_time + 1

    positions = np.zeros((num_agents, horizon), dtype=np.int64)
    carrying = np.zeros((num_agents, horizon), dtype=np.int64)
    for agent in agents:
        positions[agent.agent_id, 0] = agent.vertex
        carrying[agent.agent_id, 0] = agent.carrying

    agents_by_component: Dict[int, List[_AgentState]] = {
        c.index: [] for c in system.components
    }
    for agent in agents:
        agents_by_component[agent.component].append(agent)

    deliveries: Dict[int, int] = {}
    pickups: Dict[int, int] = {}
    entered_this_period: Dict[int, int] = {c.index: 0 for c in system.components}
    violations = 0
    stations = warehouse.station_vertices

    for t in range(horizon - 1):
        period_start = (t // cycle_time) * cycle_time
        if t > 0 and t % cycle_time == 0:
            entered_this_period = {c.index: 0 for c in system.components}
            lagging = [a for a in agents if a.advance_t < t - cycle_time]
            if lagging:
                violations += len(lagging)
                if options.strict_periods:
                    names = ", ".join(
                        f"agent {a.agent_id} in {system.component(a.component).name}"
                        for a in lagging[:5]
                    )
                    raise RealizationError(
                        f"Property 4.1 violated at t={t}: {len(lagging)} agent(s) did not "
                        f"advance during the last period ({names}); "
                        "retry with a larger cycle_time_factor"
                    )

        for agent in agents:
            action = agent.cycle.actions[agent.position]
            if action is None or agent.action_done:
                continue
            if action.is_pickup:
                if agent.carrying != EMPTY_HANDED:
                    agent.action_done = True
                    continue
                product = agent.target_product
                if product is not None and stock.units_at(product, agent.vertex) > 0:
                    stock.remove(product, agent.vertex, 1)
                    agent.carrying = product
                    agent.target_product = None
                    agent.action_done = True
                    pickups[product] = pickups.get(product, 0) + 1
            else:
                if agent.carrying != EMPTY_HANDED and agent.vertex in stations:
                    deliveries[agent.carrying] = deliveries.get(agent.carrying, 0) + 1
                    agent.carrying = EMPTY_HANDED
                    agent.action_done = True

        occupied = {agent.vertex for agent in agents}
        claimed: set = set()

        for component in system.components:
            members = agents_by_component[component.index]
            if not members:
                continue
            front = max(members, key=lambda a: component.position_of(a.vertex))
            if front.vertex != component.exit or front.advance_t >= period_start:
                continue
            next_position = (front.position + 1) % front.cycle.length
            next_component_id = front.cycle.components[next_position]
            next_component = system.component(next_component_id)
            entry = next_component.entry
            if entry in occupied or entry in claimed:
                continue
            if entered_this_period[next_component_id] >= next_component.capacity:
                continue
            members.remove(front)
            agents_by_component[next_component_id].append(front)
            front.component = next_component_id
            front.position = next_position
            front.vertex = entry
            front.advance_t = t + 1
            front.action_done = False
            next_action = front.cycle.actions[next_position]
            if (
                next_action is not None
                and next_action.is_pickup
                and front.carrying == EMPTY_HANDED
            ):
                front.target_product = schedule.next_product(next_component_id)
            claimed.add(entry)
            entered_this_period[next_component_id] += 1

        for component in system.components:
            members = sorted(
                agents_by_component[component.index],
                key=lambda a: component.position_of(a.vertex),
                reverse=True,
            )
            for agent in members:
                if agent.advance_t == t + 1:
                    continue
                next_vertex = component.next_vertex(agent.vertex)
                if (
                    next_vertex is not None
                    and next_vertex not in occupied
                    and next_vertex not in claimed
                ):
                    claimed.add(next_vertex)
                    occupied.discard(agent.vertex)
                    agent.vertex = next_vertex

        column = t + 1
        for agent in agents:
            positions[agent.agent_id, column] = agent.vertex
            carrying[agent.agent_id, column] = agent.carrying

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
# validation
# ---------------------------------------------------------------------------

def plan_deliveries(plan: Plan) -> List[Tuple[int, int, int]]:
    """:meth:`Plan.deliveries`, agent by agent and step by step."""
    events: List[Tuple[int, int, int]] = []
    stations = plan.warehouse.station_vertices
    for agent in range(plan.num_agents):
        carrying = plan.carrying[agent]
        positions = plan.positions[agent]
        for t in range(plan.horizon - 1):
            if (
                carrying[t] != EMPTY_HANDED
                and carrying[t + 1] == EMPTY_HANDED
                and int(positions[t]) in stations
            ):
                events.append((agent, t + 1, int(carrying[t])))
    return events


class PlanValidator:
    """The feasibility conditions of Sec. III checked cell by cell."""

    def __init__(self, warehouse, track_inventory: bool = True, max_violations: int = 100):
        self.warehouse = warehouse
        self.track_inventory = track_inventory
        self.max_violations = max_violations

    def validate(self, plan: Plan) -> PlanValidationReport:
        violations: List[PlanViolation] = []
        delivered: Dict[int, int] = {}
        pickups: Dict[int, int] = {}

        def add(violation: PlanViolation) -> bool:
            if len(violations) < self.max_violations:
                violations.append(violation)
            return len(violations) < self.max_violations

        self._check_vertices_exist(plan, add)
        self._check_moves(plan, add)
        self._check_collisions(plan, add)
        self._check_products(plan, add, delivered, pickups)
        return PlanValidationReport(violations=violations, delivered=delivered, pickups=pickups)

    def _check_vertices_exist(self, plan: Plan, add) -> None:
        num_vertices = self.warehouse.floorplan.num_vertices
        bad = np.argwhere((plan.positions < 0) | (plan.positions >= num_vertices))
        for agent, t in bad:
            if not add(
                PlanViolation(
                    "vertex-range",
                    int(agent),
                    int(t),
                    f"vertex {int(plan.positions[agent, t])} outside floorplan",
                )
            ):
                return

    def _check_moves(self, plan: Plan, add) -> None:
        floorplan = self.warehouse.floorplan
        num_vertices = floorplan.num_vertices
        for agent in range(plan.num_agents):
            path = plan.positions[agent]
            for t in range(plan.horizon - 1):
                u, v = int(path[t]), int(path[t + 1])
                if u == v:
                    continue
                if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                    continue
                if not floorplan.are_adjacent(u, v):
                    if not add(
                        PlanViolation(
                            "movement",
                            agent,
                            t + 1,
                            f"jump from {floorplan.cell_of(u)} to {floorplan.cell_of(v)}",
                        )
                    ):
                        return

    def _check_collisions(self, plan: Plan, add) -> None:
        positions = plan.positions
        for t in range(plan.horizon):
            column = positions[:, t]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            duplicates = np.nonzero(sorted_vals[1:] == sorted_vals[:-1])[0]
            for d in duplicates:
                agent_a, agent_b = int(order[d]), int(order[d + 1])
                if not add(
                    PlanViolation(
                        "vertex-collision",
                        agent_b,
                        t,
                        f"agents {agent_a} and {agent_b} both at vertex {int(sorted_vals[d])}",
                    )
                ):
                    return
        for t in range(plan.horizon - 1):
            now = positions[:, t]
            nxt = positions[:, t + 1]
            moves = {}
            for agent in range(plan.num_agents):
                u, v = int(now[agent]), int(nxt[agent])
                if u != v:
                    moves[(u, v)] = agent
            for (u, v), agent in moves.items():
                other = moves.get((v, u))
                if other is not None and other != agent and agent < other:
                    if not add(
                        PlanViolation(
                            "edge-collision",
                            agent,
                            t + 1,
                            f"agents {agent} and {other} swap across edge ({u}, {v})",
                        )
                    ):
                        return

    def _check_products(self, plan: Plan, add, delivered, pickups) -> None:
        warehouse = self.warehouse
        stations = warehouse.station_vertices
        stock = warehouse.stock.copy() if self.track_inventory else None
        num_products = warehouse.num_products
        num_vertices = warehouse.floorplan.num_vertices

        for agent in range(plan.num_agents):
            carrying = plan.carrying[agent]
            positions = plan.positions[agent]
            initial = int(carrying[0])
            if initial != EMPTY_HANDED and not 1 <= initial <= num_products:
                add(PlanViolation("product-range", agent, 0, f"unknown product {initial}"))
            for t in range(plan.horizon - 1):
                before, after = int(carrying[t]), int(carrying[t + 1])
                vertex = int(positions[t])
                if after != EMPTY_HANDED and not 1 <= after <= num_products:
                    if not add(
                        PlanViolation("product-range", agent, t + 1, f"unknown product {after}")
                    ):
                        return
                    continue
                if before == after:
                    continue
                if not 0 <= vertex < num_vertices:
                    continue
                if before == EMPTY_HANDED:
                    available = warehouse.products_at(vertex)
                    if after not in available:
                        if not add(
                            PlanViolation(
                                "pickup",
                                agent,
                                t + 1,
                                f"picked product {after} at vertex {vertex} "
                                f"which offers {sorted(available)}",
                            )
                        ):
                            return
                        continue
                    if stock is not None:
                        if stock.units_at(after, vertex) <= 0:
                            if not add(
                                PlanViolation(
                                    "inventory",
                                    agent,
                                    t + 1,
                                    f"picked product {after} at vertex {vertex} but stock is exhausted",
                                )
                            ):
                                return
                            continue
                        stock.remove(after, vertex, 1)
                    pickups[after] = pickups.get(after, 0) + 1
                elif after == EMPTY_HANDED:
                    if vertex not in stations:
                        if not add(
                            PlanViolation(
                                "dropoff",
                                agent,
                                t + 1,
                                f"dropped product {before} at non-station vertex {vertex}",
                            )
                        ):
                            return
                        continue
                    delivered[before] = delivered.get(before, 0) + 1
                else:
                    if not add(
                        PlanViolation(
                            "swap",
                            agent,
                            t + 1,
                            f"carried product changed {before} -> {after} without dropping off",
                        )
                    ):
                        return


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

class AgentExecutor:
    """One agent's row of a plan, interpreted every tick."""

    def __init__(self, agent_id, positions, carrying, owner_of, recorder, stations, shelves):
        self.agent_id = agent_id
        self.positions = positions
        self.carrying = carrying
        self.owner_of = owner_of
        self.recorder = recorder
        self.stations = stations
        self.shelves = shelves

    def step(self, t: int) -> None:
        src = int(self.positions[t])
        dst = int(self.positions[t + 1])
        before = int(self.carrying[t])
        after = int(self.carrying[t + 1])
        now = t + 1

        if src != dst:
            self.recorder.record_move(now, self.agent_id, src, dst)
            src_component = self.owner_of.get(src)
            dst_component = self.owner_of.get(dst)
            if (
                src_component is not None
                and dst_component is not None
                and src_component != dst_component
            ):
                self.recorder.record_transition(now, src_component, dst_component, after)

        if before == after:
            return
        component = self.owner_of.get(src)
        if before == EMPTY_HANDED:
            shelf = self.shelves.get(component) if component is not None else None
            if shelf is not None:
                if not shelf.pick(after, now):
                    self.recorder.record_stockout(now, component, after)
            else:
                self.recorder.record_pickup(now, -1 if component is None else component, after)
        elif after == EMPTY_HANDED:
            station = self.stations.get(component) if component is not None else None
            if station is not None:
                station.handoff(before)
            else:
                self.recorder.record_handoff(
                    now, -1 if component is None else component, before
                )


class PlanExecutor:
    """One engine event per tick, every agent stepped in it."""

    def __init__(self, engine, plan, system, recorder, stations, shelves, max_ticks=None):
        if plan.warehouse is not system.warehouse:
            ours = plan.warehouse.floorplan
            theirs = system.warehouse.floorplan
            if (
                ours.num_vertices != theirs.num_vertices
                or ours.stations != theirs.stations
                or ours.shelf_access != theirs.shelf_access
            ):
                raise ExecutionError(
                    "the plan's warehouse does not match the one the traffic system "
                    "was designed for"
                )
        self.engine = engine
        self.plan = plan
        self.recorder = recorder
        self.ticks = plan.horizon if max_ticks is None else min(max_ticks, plan.horizon)
        owner_of = {v: system.owner_of(v) for v in range(plan.warehouse.floorplan.num_vertices)}
        owner_of = {v: c for v, c in owner_of.items() if c is not None}
        self.agents = [
            AgentExecutor(
                agent_id=agent,
                positions=plan.positions[agent],
                carrying=plan.carrying[agent],
                owner_of=owner_of,
                recorder=recorder,
                stations=stations,
                shelves=shelves,
            )
            for agent in range(plan.num_agents)
        ]

    def start(self) -> None:
        self.engine.schedule_at(0, self._begin, PRIORITY_AGENTS)

    def _begin(self) -> None:
        self.recorder.record_positions(0, self.plan.positions[:, 0])
        for agent in range(self.plan.num_agents):
            product = int(self.plan.carrying[agent, 0])
            if product != EMPTY_HANDED:
                self.recorder.record_preload(agent, product)
        if self.ticks > 1:
            self.engine.schedule_at(1, self._tick, PRIORITY_AGENTS)

    def _tick(self) -> None:
        now = self.engine.now
        for agent in self.agents:
            agent.step(now - 1)
        self.recorder.record_positions(now, self.plan.positions[:, now])
        if now + 1 < self.ticks:
            self.engine.schedule_at(now + 1, self._tick, PRIORITY_AGENTS)


def track_queues(recorder, stations) -> None:
    """Sample every station's queue length at the end of every tick (an
    ``every(1)`` event in the telemetry band) into zero-initialised per-tick
    arrays, which the trace takes as they are."""
    recorder._queues = {
        component: np.zeros(recorder.ticks, dtype=np.int64) for component in stations
    }
    if not stations:
        return
    engine = next(iter(stations.values())).engine

    def sample() -> None:
        now = engine.now
        for component, station in stations.items():
            recorder._queues[component][now] = station.queue_length

    engine.every(1, sample, PRIORITY_TELEMETRY, start=0, until=recorder.ticks - 1)


def attach_monitor(monitor, engine, recorder, cycle_time: int) -> None:
    """The live capacity check, counting entries from the transition table."""

    def check_period() -> None:
        now = engine.now
        period = now // cycle_time - 1
        if period < 0 or period >= recorder.periods:
            return
        for component in monitor.system.components:
            entered = sum(
                int(counts[period])
                for (_, target, _), counts in recorder._transitions.items()
                if target == component.index
            )
            if entered > component.capacity:
                key = (component.index, period)
                if key in monitor._live_seen:
                    continue
                monitor._live_seen[key] = now
                violation = MonitorViolation(
                    contract=f"component[{component.name}]",
                    constraint=f"capacity[{component.name}]",
                    kind=LIVE_CAPACITY,
                    amount=float(entered - component.capacity),
                    detail=(
                        f"{entered} agents entered in period {period} "
                        f"(capacity {component.capacity})"
                    ),
                    tick=now,
                )
                monitor.live_violations.append(violation)
                from repro.obs import emit_event, get_registry

                get_registry().counter(
                    "repro_contract_breach_total",
                    "Live contract breaches observed by the sim monitors",
                    kind=LIVE_CAPACITY,
                ).inc()
                emit_event(
                    "contract.breach",
                    "sim",
                    level="error",
                    message=violation.detail,
                    contract=violation.contract,
                    amount=violation.amount,
                    tick=now,
                )

    engine.every(cycle_time, check_period, PRIORITY_MONITORS, start=cycle_time)


def pending_legs(executor, donor: int) -> List[Tuple[int, int, int, int, int]]:
    """:meth:`ResilientPlanExecutor._pending_legs`, every plan step in turn."""
    st = executor.states[donor]
    positions = executor.plan.positions[donor]
    carrying = executor.plan.carrying[donor]
    legs = []
    cur = st.carry
    pickup = None
    for s in range(st.plan_idx, min(executor.num_steps, executor.ticks - 1)):
        if s in st.suppressed:
            continue
        before, after = int(carrying[s]), int(carrying[s + 1])
        if before == after:
            continue
        if cur == EMPTY_HANDED and after != EMPTY_HANDED:
            pickup = (s, int(positions[s]), after)
            cur = after
        elif cur != EMPTY_HANDED and after == EMPTY_HANDED:
            if pickup is not None:
                legs.append((pickup[0], s, pickup[1], int(positions[s]), pickup[2]))
                pickup = None
            cur = EMPTY_HANDED
    return legs


def is_idle(executor, agent: int) -> bool:
    """:meth:`ResilientPlanExecutor._is_idle` for an agent that is up, at full
    speed and off any detour or recovery route: empty-handed, and every load
    change left in its plan transferred away."""
    st = executor.states[agent]
    carrying = executor.plan.carrying[agent]
    return st.carry == EMPTY_HANDED and all(
        s in st.suppressed
        for s in range(st.plan_idx, executor.num_steps)
        if carrying[s] != carrying[s + 1]
    )


@contextmanager
def reference_replay():
    """Run :func:`repro.sim.runner.simulate_plan` on the tick-by-tick oracles.

    The stations' own queue reports are dropped, so the queue series come
    from the per-tick sampler alone.
    """
    saved = {
        (owner, name): getattr(owner, name)
        for owner, name in (
            (sim_runner, "PlanExecutor"),
            (sim_monitors.ContractMonitor, "attach"),
            (TraceRecorder, "track_queues"),
            (TraceRecorder, "record_queue_length"),
            (TraceRecorder, "_queue_series"),
        )
    }
    sim_runner.PlanExecutor = PlanExecutor
    sim_monitors.ContractMonitor.attach = attach_monitor
    TraceRecorder.track_queues = track_queues
    TraceRecorder.record_queue_length = lambda self, tick, component, length: None
    TraceRecorder._queue_series = lambda self, samples: samples
    try:
        yield
    finally:
        for (owner, name), original in saved.items():
            setattr(owner, name, original)
