"""Plan execution: stepping a realized plan through the event engine.

A realized :class:`~repro.warehouse.plan.Plan` is a complete commitment — for
every agent and tick it fixes the vertex and the carried product.  The
executor replays those commitments and translates them into the *events* the
rest of the digital twin consumes:

* movement (visit counts, per-component transitions with the carried product —
  the observable counterpart of the synthesized flow variables ``f[i, j, k]``);
* pickups (consume shelf inventory through the row's
  :class:`~repro.sim.stations.ShelfProcess`);
* drop-offs (hand the unit to the station component's
  :class:`~repro.sim.stations.StationProcess`, whose service queue decides when
  the unit actually counts as served).

Because the plan is fixed in advance, the executor diffs the (π, φ) matrices
once and schedules an engine event only at the ticks where an agent crosses
into another component, changes its load, or — while the event log is being
recorded — moves at all.  Each such event steps only those agents, in agent
order, so station hand-offs, RNG draws, monitor reads and the event log keep
the order a tick-by-tick replay would give them.  Visit counts come from the
whole position matrix at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.plan import Plan
from ..warehouse.products import EMPTY_HANDED
from .engine import PRIORITY_AGENTS, SimulationEngine
from .stations import ShelfProcess, StationProcess
from .telemetry import TraceRecorder


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed against the given traffic system."""


class PlanExecutor:
    """Replays a plan on the engine's clock, one event per eventful tick."""

    def __init__(
        self,
        engine: SimulationEngine,
        plan: Plan,
        system: TrafficSystem,
        recorder: TraceRecorder,
        stations: Dict[ComponentId, StationProcess],
        shelves: Dict[ComponentId, ShelfProcess],
        max_ticks: Optional[int] = None,
    ) -> None:
        if plan.warehouse is not system.warehouse:
            # Saved plans round-trip through JSON into a fresh Warehouse object,
            # so accept any warehouse that is structurally the same floorplan.
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
        self.stations = stations
        self.shelves = shelves
        self.ticks = plan.horizon if max_ticks is None else min(max_ticks, plan.horizon)
        num_vertices = plan.warehouse.floorplan.num_vertices
        owners = [system.owner_of(v) for v in range(num_vertices)]
        #: Component of every vertex, -1 where no component owns it.
        self._owner = np.array([-1 if c is None else c for c in owners], dtype=np.int64)
        self._steps: List[tuple] = []
        self._next = 0

    def start(self) -> None:
        """Schedule the replay; the event at tick t interprets the move into t."""
        self.engine.schedule_at(0, self._begin, PRIORITY_AGENTS)

    def _begin(self) -> None:
        positions = self.plan.positions[:, : self.ticks]
        self.recorder.record_positions(0, positions)
        for agent in range(self.plan.num_agents):
            product = int(self.plan.carrying[agent, 0])
            if product != EMPTY_HANDED:
                self.recorder.record_preload(agent, product)
        self._steps = self._eventful_steps()
        self._schedule_next()

    def _owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning component of every vertex id (-1 when unowned or out of range)."""
        owner = self._owner
        inside = (vertices >= 0) & (vertices < len(owner))
        return np.where(inside, owner[np.clip(vertices, 0, len(owner) - 1)], -1)

    def _eventful_steps(self) -> List[tuple]:
        """``(tick, agent, src, dst, before, after, src component, dst component)``
        of every step that emits something, ordered by tick, then agent."""
        positions = self.plan.positions[:, : self.ticks]
        carrying = self.plan.carrying[:, : self.ticks]
        src, dst = positions[:, :-1], positions[:, 1:]
        before, after = carrying[:, :-1], carrying[:, 1:]
        moved = src != dst
        src_component = self._owner_of(src)
        dst_component = self._owner_of(dst)
        crossed = moved & (src_component >= 0) & (dst_component >= 0)
        crossed &= src_component != dst_component
        eventful = crossed | (before != after)
        if self.recorder.events is not None:
            eventful |= moved
        ticks, agents = np.nonzero(eventful.T)
        cells = (agents, ticks)
        return list(
            zip(
                (ticks + 1).tolist(),
                agents.tolist(),
                src[cells].tolist(),
                dst[cells].tolist(),
                before[cells].tolist(),
                after[cells].tolist(),
                src_component[cells].tolist(),
                dst_component[cells].tolist(),
            )
        )

    def _schedule_next(self) -> None:
        if self._next < len(self._steps):
            self.engine.schedule_at(self._steps[self._next][0], self._tick, PRIORITY_AGENTS)

    def _tick(self) -> None:
        steps = self._steps
        now = self.engine.now
        index = self._next
        while index < len(steps) and steps[index][0] == now:
            self._step(*steps[index])
            index += 1
        self._next = index
        self._schedule_next()

    def _step(
        self,
        now: int,
        agent: int,
        src: int,
        dst: int,
        before: int,
        after: int,
        src_component: int,
        dst_component: int,
    ) -> None:
        """Interpret one agent's transition from tick ``now - 1`` to ``now``."""
        recorder = self.recorder
        if src != dst:
            recorder.record_move(now, agent, src, dst)
            if src_component >= 0 and dst_component >= 0 and src_component != dst_component:
                # Cross-component advance: the live counterpart of one unit of
                # the synthesized flow f[src, dst, product] in this period.
                # The product crossing the boundary is the one carried *after*
                # the move (pickups/drop-offs resolve at the departure vertex).
                recorder.record_transition(now, src_component, dst_component, after)

        if before == after:
            return
        # The paper's condition (3): the load change at t+1 is decided at the
        # vertex occupied at t (-1 when no component owns it).
        if before == EMPTY_HANDED:
            shelf = self.shelves.get(src_component)
            if shelf is not None:
                if not shelf.pick(after, now):
                    recorder.record_stockout(now, src_component, after)
            else:
                # Pickup outside any shelving row (e.g. hand-authored plans):
                # still count the unit so conservation holds.
                recorder.record_pickup(now, src_component, after)
        elif after == EMPTY_HANDED:
            station = self.stations.get(src_component)
            if station is not None:
                station.handoff(before)
            else:
                recorder.record_handoff(now, src_component, before)
        # before != after != 0 (a swap) is structurally invalid; the plan
        # validator reports it, the executor simply replays the matrices.
