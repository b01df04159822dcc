"""Stochastic failure injection with online recovery (the resilience layer).

The nominal digital twin executes a realized plan exactly as committed; this
module degrades it the way a physical warehouse degrades.  A seedable
:class:`DisruptionProcess` injects first-class events into the event heap —
agent breakdowns with repair times, agent slowdowns, station outages,
temporarily blocked aisle edges, and demand surges in the order stream — and a
:class:`ResilientPlanExecutor` replaces the verbatim plan replay with a
*queued* execution: every agent keeps a progress pointer into its committed
trajectory, advances at most one step per tick, and yields deterministically
when a broken agent, a blocked edge or another queued agent occupies the cell
it wants.  Because motion now emerges from local conflict resolution instead
of the plan matrices, the realized trajectory is re-materialized as a fresh
:class:`~repro.warehouse.plan.Plan` — which must (and is tested to) satisfy
the same three feasibility conditions as the nominal plan.

Online recovery policies (enabled by :attr:`DisruptionConfig.recover`):

* **reassignment** — when an agent breaks down, its not-yet-started delivery
  legs (pickup → drop-off pairs) are handed to idle healthy agents, who route
  to the shelf and the station along shortest paths; the donor keeps walking
  its loop but its transferred load changes are suppressed, so no unit is
  picked or delivered twice;
* **windowed re-routing** — an agent blocked on a disabled edge longer than
  :attr:`DisruptionConfig.reroute_patience` ticks splices in a shortest
  detour around every currently-blocked edge (pure-motion steps only: a step
  that changes the carried product pins its decision vertex and is never
  detoured);
* **station failover** — a hand-off at an offline station's queue is diverted
  to the least-loaded online station, re-weighting the observed flows (which
  the AG-contract monitor then judges).

Everything stochastic draws from the engine's single seeded generator, so a
disrupted run is a pure function of (plan, seed, config); a zero-rate
configuration never binds any of this machinery and reproduces the nominal
trace byte for byte.  :class:`ScriptedDisruption` additionally allows exact,
rng-free schedules for golden tests and replayable incident analyses.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.floorplan import FloorplanGraph, VertexId
from ..warehouse.plan import Plan
from ..warehouse.products import EMPTY_HANDED, ProductId
from ..warehouse.workload import Workload
from .engine import PRIORITY_AGENTS, PRIORITY_DISRUPTIONS, SimulationEngine
from .stations import ShelfProcess, StationProcess
from .telemetry import TraceRecorder
from .workload_gen import OrderBook, product_mix_from_workload

#: Disruption families, in injection order (fixed for determinism).
DISRUPTION_KINDS = ("breakdown", "slowdown", "outage", "block", "surge")

#: Agent health states of the resilient executor.
AGENT_UP = 0
AGENT_DOWN = 1


class DisruptionError(ValueError):
    """Raised for invalid disruption specifications."""


@dataclass(frozen=True)
class ScriptedDisruption:
    """One exact, rng-free disruption event (golden tests, incident replay).

    ``target`` selects the subject — an agent id for ``breakdown``/
    ``slowdown``, a station-queue component id for ``outage``, an index into
    :func:`canonical_edges` for ``block`` (``-1`` = first eligible subject).
    ``duration`` of 0 falls back to the config's default for the kind;
    ``magnitude`` is the order count of a ``surge``.
    """

    tick: int
    kind: str
    target: int = -1
    duration: int = 0
    magnitude: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DISRUPTION_KINDS:
            raise DisruptionError(
                f"unknown disruption kind {self.kind!r}; expected one of {DISRUPTION_KINDS}"
            )
        if self.tick < 1:
            raise DisruptionError(f"scripted disruptions start at tick 1, got {self.tick}")
        if self.duration < 0 or self.magnitude < 0:
            raise DisruptionError("duration and magnitude must be non-negative")


@dataclass(frozen=True)
class DisruptionConfig:
    """Knobs of the stochastic disruption process and the recovery policies.

    All rates are per-tick probabilities (per *agent* for breakdowns and
    slowdowns, per *system* for outages, blocks and surges).  The default
    configuration has every rate at zero and therefore
    :attr:`is_active` = False — the simulation runner then takes the nominal
    execution path untouched.
    """

    #: Per-agent per-tick breakdown probability.
    breakdown_rate: float = 0.0
    #: Ticks a broken agent stays down before its repair completes.
    repair_time: int = 25
    #: Per-agent per-tick slowdown probability.
    slowdown_rate: float = 0.0
    #: Ticks a slowdown lasts.
    slowdown_duration: int = 30
    #: A slowed agent executes one step every ``slowdown_factor`` ticks.
    slowdown_factor: int = 2
    #: Per-tick probability of one station-queue outage.
    outage_rate: float = 0.0
    #: Ticks an outage lasts.
    outage_duration: int = 40
    #: Per-tick probability of one aisle-edge block.
    block_rate: float = 0.0
    #: Ticks a blocked edge stays impassable.
    block_duration: int = 20
    #: Per-tick probability of a demand surge (burst of extra orders).
    surge_rate: float = 0.0
    #: Orders injected per surge.
    surge_orders: int = 5
    #: Orders fulfilled later than this count as *late* (0 = disabled).
    order_deadline: int = 0
    #: Cap on stochastically injected events (scripted events always fire).
    max_events: int = 1000
    #: Enable the online recovery policies (reassign / re-route / failover).
    recover: bool = True
    #: Ticks an agent waits at a blocked edge before splicing in a detour.
    reroute_patience: int = 3
    #: Exact, rng-free disruption schedule applied on top of the rates.
    schedule: Tuple[ScriptedDisruption, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "breakdown_rate",
            "slowdown_rate",
            "outage_rate",
            "block_rate",
            "surge_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DisruptionError(f"{name} must be in [0, 1], got {rate!r}")
        for name in ("repair_time", "slowdown_duration", "outage_duration", "block_duration"):
            if getattr(self, name) < 1:
                raise DisruptionError(f"{name} must be at least 1 tick")
        if self.slowdown_factor < 2:
            raise DisruptionError("slowdown_factor must be at least 2")
        if self.surge_orders < 1:
            raise DisruptionError("surge_orders must be at least 1")
        if self.order_deadline < 0:
            raise DisruptionError("order_deadline must be non-negative")
        if self.max_events < 0:
            raise DisruptionError("max_events must be non-negative")
        if self.reroute_patience < 1:
            raise DisruptionError("reroute_patience must be at least 1 tick")
        object.__setattr__(self, "schedule", tuple(self.schedule))

    @property
    def is_active(self) -> bool:
        """True when any disruption can actually occur."""
        return bool(self.schedule) or any(
            getattr(self, f"{kind}_rate") > 0.0 for kind in DISRUPTION_KINDS
        )

    def describe(self) -> str:
        if not self.is_active:
            return "none"
        parts = [
            f"{kind}:{getattr(self, f'{kind}_rate'):g}"
            for kind in DISRUPTION_KINDS
            if getattr(self, f"{kind}_rate") > 0.0
        ]
        if self.schedule:
            parts.append(f"scripted:{len(self.schedule)}")
        if not self.recover:
            parts.append("norecover")
        return ",".join(parts)


#: ``parse_disruptions`` entry names mapped to (rate field, duration field).
_SPEC_FIELDS = {
    "breakdown": ("breakdown_rate", "repair_time"),
    "slowdown": ("slowdown_rate", "slowdown_duration"),
    "outage": ("outage_rate", "outage_duration"),
    "block": ("block_rate", "block_duration"),
    "surge": ("surge_rate", "surge_orders"),
}


def parse_disruptions(spec: str) -> Optional[DisruptionConfig]:
    """``"none"`` / ``"breakdown:0.02:25,block:0.01"`` -> a disruption config.

    The grammar is comma-separated ``kind:rate[:duration]`` entries (for
    ``surge`` the third field is the orders-per-surge burst size), plus the
    modifiers ``deadline:N`` (late-order threshold) and ``norecover``
    (disable the online recovery policies).  ``"none"`` / ``""`` mean no
    disruption layer at all and return ``None``.
    """
    text = (spec or "").strip()
    if text in ("", "none"):
        return None
    overrides: Dict[str, object] = {}
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        name, _, rest = entry.partition(":")
        if name == "norecover":
            if rest:
                raise DisruptionError(f"norecover takes no arguments, got {entry!r}")
            overrides["recover"] = False
            continue
        if name == "deadline":
            try:
                overrides["order_deadline"] = int(rest)
            except ValueError as error:
                raise DisruptionError(f"invalid deadline {entry!r}: {error}") from error
            continue
        if name not in _SPEC_FIELDS:
            raise DisruptionError(
                f"unknown disruption {name!r}; expected one of "
                f"{tuple(_SPEC_FIELDS)} (or deadline:N, norecover)"
            )
        rate_field, duration_field = _SPEC_FIELDS[name]
        rate_text, _, duration_text = rest.partition(":")
        try:
            overrides[rate_field] = float(rate_text)
            if duration_text:
                overrides[duration_field] = int(duration_text)
        except ValueError as error:
            raise DisruptionError(
                f"invalid disruption entry {entry!r} "
                f"(use kind:rate[:duration]): {error}"
            ) from error
    if not any(rate_field in overrides for rate_field, _ in _SPEC_FIELDS.values()):
        # Modifier-only specs (just deadline:/norecover) would parse into an
        # inactive config and the run would silently take the nominal path.
        raise DisruptionError(
            f"disruption spec {spec!r} configures no disruption family; "
            f"add at least one of {tuple(_SPEC_FIELDS)} (or use 'none')"
        )
    try:
        return DisruptionConfig(**overrides)
    except DisruptionError:
        raise
    except TypeError as error:  # pragma: no cover - defensive
        raise DisruptionError(f"invalid disruption spec {spec!r}: {error}") from error


@dataclass
class ResilienceReport:
    """Resilience telemetry of one disrupted run (serialized with the trace).

    Every field is an integer so the report is a byte-stable part of the
    golden trace JSON; wall-clock quantities never enter it.
    """

    # -- injected disruptions ---------------------------------------------------
    breakdowns: int = 0
    slowdowns: int = 0
    outages: int = 0
    blocks: int = 0
    surges: int = 0
    surged_orders: int = 0
    # -- recovery actions ---------------------------------------------------------
    repairs: int = 0
    reassignments: int = 0
    reroutes: int = 0
    failovers: int = 0
    recovery_latency_total: int = 0
    # -- degradation accounting ---------------------------------------------------
    agent_downtime: int = 0
    slowdown_ticks: int = 0
    station_downtime: int = 0
    blocked_waits: int = 0
    conflict_waits: int = 0
    # -- service outcome ----------------------------------------------------------
    #: Units the nominal replay would have delivered by the same tick.
    nominal_units: int = 0
    units_served: int = 0
    dropped_orders: int = 0
    late_orders: int = 0
    #: Live contract-monitor breaches observed during the run.
    breach_windows: int = 0
    first_breach_tick: int = -1

    @property
    def num_disruptions(self) -> int:
        return self.breakdowns + self.slowdowns + self.outages + self.blocks + self.surges

    @property
    def num_recoveries(self) -> int:
        return self.repairs + self.reassignments + self.reroutes + self.failovers

    @property
    def throughput_retention(self) -> float:
        """Served units over the nominal delivery count (1.0 = no loss)."""
        if self.nominal_units <= 0:
            return 1.0
        return self.units_served / self.nominal_units

    @property
    def mean_recovery_latency(self) -> float:
        """Mean ticks from disruption onset to its recovery action."""
        resolved = self.repairs + self.reroutes
        if resolved == 0:
            return 0.0
        return self.recovery_latency_total / resolved

    def summary(self) -> str:
        return (
            f"resilience: {self.num_disruptions} disruption(s) "
            f"({self.breakdowns} breakdown, {self.slowdowns} slowdown, "
            f"{self.outages} outage, {self.blocks} block, {self.surges} surge), "
            f"{self.num_recoveries} recovery action(s) "
            f"({self.repairs} repair, {self.reassignments} reassign, "
            f"{self.reroutes} reroute, {self.failovers} failover), "
            f"retention {self.throughput_retention:.3f} "
            f"({self.units_served}/{self.nominal_units} units), "
            f"{self.dropped_orders} dropped / {self.late_orders} late order(s), "
            f"{self.breach_windows} breach window(s)"
        )

    def to_dict(self) -> Dict[str, int]:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_dict(document: Dict[str, int]) -> "ResilienceReport":
        known = {f.name for f in fields(ResilienceReport)}
        return ResilienceReport(
            **{k: int(v) for k, v in document.items() if k in known}
        )


def canonical_edges(floorplan: FloorplanGraph) -> List[Tuple[VertexId, VertexId]]:
    """Every undirected floorplan edge as a sorted ``(u, v)`` pair, in order.

    The list is the deterministic sample space of the edge-block disruption
    and the index space of :attr:`ScriptedDisruption.target` for blocks.
    """
    edges: List[Tuple[VertexId, VertexId]] = []
    for u in range(floorplan.num_vertices):
        for v in floorplan.neighbors(u):
            if u < v:
                edges.append((u, v))
    return edges


def _edge_key(u: VertexId, v: VertexId) -> Tuple[VertexId, VertexId]:
    return (u, v) if u < v else (v, u)


def _bfs_avoiding(
    floorplan: FloorplanGraph,
    source: VertexId,
    target: VertexId,
    blocked: Set[Tuple[VertexId, VertexId]],
) -> Optional[List[VertexId]]:
    """Shortest path avoiding ``blocked`` edges (None when disconnected)."""
    if source == target:
        return [source]
    parents: Dict[VertexId, VertexId] = {source: source}
    frontier: Deque[VertexId] = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in floorplan.neighbors(u):
            if v in parents or _edge_key(u, v) in blocked:
                continue
            parents[v] = u
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return path[::-1]
            frontier.append(v)
    return None


# ---------------------------------------------------------------------------
# resilient plan execution
# ---------------------------------------------------------------------------

@dataclass
class _AgentState:
    """Mutable execution state of one agent under the resilient executor."""

    pos: int
    carry: int
    #: Next plan step to execute (step ``s`` is the transition s -> s+1).
    plan_idx: int = 0
    status: int = AGENT_UP
    down_since: int = -1
    slow_until: int = -1
    slow_anchor: int = 0
    #: Pending detour vertices (pure motion around blocked edges).
    detour: Deque[int] = field(default_factory=deque)
    #: What completing the detour consumes: "plan" advances plan_idx,
    #: "extra" pops the synthetic queue head.
    detour_consumes: str = ""
    #: Synthetic recovery steps ``(dst, carry_after)`` (reassigned legs).
    extra: Deque[Tuple[int, int]] = field(default_factory=deque)
    #: Plan steps whose load change was transferred away (walk, don't touch).
    suppressed: Set[int] = field(default_factory=set)
    blocked_since: int = -1


class ResilientPlanExecutor:
    """Queued plan execution that tolerates injected disruptions.

    Semantics without any disruption are identical to
    :class:`~repro.sim.agents.PlanExecutor` — every agent executes exactly one
    plan step per tick and the conflict resolver degenerates to "everyone
    moves" because the committed plan is collision-free.  The class is still
    only used when a disruption layer is active, so nominal runs keep the
    verbatim replay path (and its byte-identical traces).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        plan: Plan,
        system: TrafficSystem,
        recorder: TraceRecorder,
        stations: Dict[ComponentId, StationProcess],
        shelves: Dict[ComponentId, ShelfProcess],
        config: DisruptionConfig,
        report: ResilienceReport,
        max_ticks: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.system = system
        self.recorder = recorder
        self.stations = stations
        self.shelves = shelves
        self.config = config
        self.report = report
        self.floorplan = plan.warehouse.floorplan
        self.ticks = plan.horizon if max_ticks is None else min(max_ticks, plan.horizon)
        self.num_steps = plan.horizon - 1
        owner_of = {v: system.owner_of(v) for v in range(self.floorplan.num_vertices)}
        self.owner_of = {v: c for v, c in owner_of.items() if c is not None}
        self.states: List[_AgentState] = [
            _AgentState(pos=int(plan.positions[i, 0]), carry=int(plan.carrying[i, 0]))
            for i in range(plan.num_agents)
        ]
        #: Plan-step indices at which each agent's carried product changes
        #: (ascending, so a search finds the ones left from any step).
        self.change_steps: List[List[int]] = [
            np.flatnonzero(plan.carrying[i, 1:] != plan.carrying[i, :-1]).tolist()
            for i in range(plan.num_agents)
        ]
        #: The plan's cells as Python ints, a row per agent: the tick loop
        #: reads them one at a time, and numpy scalars are slow to read.
        self.plan_positions: List[List[VertexId]] = plan.positions.tolist()
        self.plan_carrying: List[List[ProductId]] = plan.carrying.tolist()
        self.realized_positions = np.empty((plan.num_agents, self.ticks), dtype=np.int64)
        self.realized_carrying = np.empty((plan.num_agents, self.ticks), dtype=np.int64)
        #: Currently blocked edges (filled by the DisruptionProcess).
        self.blocked_edges: Dict[Tuple[VertexId, VertexId], int] = {}

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        self.engine.schedule_at(0, self._begin, PRIORITY_AGENTS)

    def _begin(self) -> None:
        positions = np.array([st.pos for st in self.states], dtype=np.int64)
        self.recorder.record_positions(0, positions)
        self.realized_positions[:, 0] = positions
        self.realized_carrying[:, 0] = [st.carry for st in self.states]
        for agent, st in enumerate(self.states):
            if st.carry != EMPTY_HANDED:
                self.recorder.record_preload(agent, st.carry)
        if self.ticks > 1:
            self.engine.schedule_at(1, self._tick, PRIORITY_AGENTS)

    # -- disruption hooks (called by the DisruptionProcess) --------------------------
    def edge_is_blocked(self, u: VertexId, v: VertexId) -> bool:
        return self.blocked_edges.get(_edge_key(u, v), 0) > self.engine.now

    def block_edge(self, u: VertexId, v: VertexId, until: int) -> None:
        key = _edge_key(u, v)
        self.blocked_edges[key] = max(self.blocked_edges.get(key, 0), until)

    def set_down(self, agent: int) -> None:
        st = self.states[agent]
        st.status = AGENT_DOWN
        st.down_since = self.engine.now

    def set_up(self, agent: int) -> int:
        """Repair an agent; returns the downtime (ticks) it accumulated."""
        st = self.states[agent]
        downtime = self.engine.now - st.down_since if st.down_since >= 0 else 0
        st.status = AGENT_UP
        st.down_since = -1
        return downtime

    def is_up(self, agent: int) -> bool:
        return self.states[agent].status == AGENT_UP

    def set_slow(self, agent: int, until: int) -> None:
        st = self.states[agent]
        st.slow_until = until
        st.slow_anchor = self.engine.now

    def is_slowed(self, agent: int) -> bool:
        return self.states[agent].slow_until > self.engine.now

    # -- recovery: leg reassignment ---------------------------------------------------
    def _is_idle(self, agent: int) -> bool:
        st = self.states[agent]
        if st.status != AGENT_UP or st.carry != EMPTY_HANDED:
            return False
        if st.detour or st.extra or self.is_slowed(agent):
            return False
        steps = self.change_steps[agent]
        return all(s in st.suppressed for s in steps[bisect_left(steps, st.plan_idx):])

    def _pending_legs(self, donor: int) -> List[Tuple[int, int, VertexId, VertexId, ProductId]]:
        """Transferable (pickup_step, drop_step, shelf, station, product) legs.

        The leg currently in progress (the donor already holds the unit) is
        excluded — the donor delivers it itself after repair.  Only legs that
        complete within the executed window (``ticks``) are transferable: a
        truncated run must not recover deliveries its nominal baseline never
        counts, or retention would exceed 1.
        """
        st = self.states[donor]
        positions = self.plan_positions[donor]
        carrying = self.plan_carrying[donor]
        steps = self.change_steps[donor]
        end = min(self.num_steps, self.ticks - 1)
        legs: List[Tuple[int, int, VertexId, VertexId, ProductId]] = []
        cur = st.carry
        pickup: Optional[Tuple[int, VertexId, ProductId]] = None
        # Only a step where the plan's load changes can start or end a leg.
        for s in steps[bisect_left(steps, st.plan_idx) : bisect_left(steps, end)]:
            if s in st.suppressed:
                continue
            after = carrying[s + 1]
            if cur == EMPTY_HANDED and after != EMPTY_HANDED:
                pickup = (s, positions[s], after)
                cur = after
            elif cur != EMPTY_HANDED and after == EMPTY_HANDED:
                if pickup is not None:
                    legs.append((pickup[0], s, pickup[1], positions[s], pickup[2]))
                    pickup = None
                cur = EMPTY_HANDED
        return legs

    def reassign_from(self, donor: int) -> int:
        """Hand the donor's future delivery legs to idle agents; returns count."""
        legs = self._pending_legs(donor)
        if not legs:
            return 0
        helpers = [
            i for i in range(len(self.states)) if i != donor and self._is_idle(i)
        ]
        if not helpers:
            return 0
        now = self.engine.now
        donor_state = self.states[donor]
        route_end = {i: self.states[i].pos for i in helpers}
        transferred = 0
        for index, (pickup_s, drop_s, shelf_v, station_v, product) in enumerate(legs):
            helper = helpers[index % len(helpers)]
            to_shelf = self.floorplan.shortest_path(route_end[helper], shelf_v)
            to_station = self.floorplan.shortest_path(shelf_v, station_v)
            if to_shelf is None or to_station is None:
                continue
            helper_state = self.states[helper]
            # Abandon the helper's residual no-op plan motion: recruiting is
            # only allowed when no load-changing steps remain (see _is_idle).
            helper_state.plan_idx = self.num_steps
            for v in to_shelf[1:]:
                helper_state.extra.append((v, EMPTY_HANDED))
            helper_state.extra.append((shelf_v, product))  # pickup (stay step)
            for v in to_station[1:]:
                helper_state.extra.append((v, product))
            helper_state.extra.append((station_v, EMPTY_HANDED))  # drop-off
            route_end[helper] = station_v
            donor_state.suppressed.update((pickup_s, drop_s))
            self.recorder.record_recovery(now, "reassign", donor)
            self.report.reassignments += 1
            transferred += 1
        return transferred

    # -- recovery: windowed re-routing --------------------------------------------------
    def _try_reroute(self, agent: int, target: VertexId, consumes: str) -> bool:
        st = self.states[agent]
        blocked = {
            edge for edge, until in self.blocked_edges.items() if until > self.engine.now
        }
        path = _bfs_avoiding(self.floorplan, st.pos, target, blocked)
        if path is None or len(path) < 2:
            return False
        st.detour = deque(path[1:])
        st.detour_consumes = consumes
        waited = self.engine.now - st.blocked_since if st.blocked_since >= 0 else 0
        st.blocked_since = -1
        self.recorder.record_recovery(self.engine.now, "reroute", agent, waited)
        self.report.reroutes += 1
        self.report.recovery_latency_total += waited
        return True

    # -- the tick loop -------------------------------------------------------------------
    def _intent(self, agent: int) -> Tuple[int, str]:
        """The vertex this agent wants to occupy next tick, and why."""
        st = self.states[agent]
        now = self.engine.now
        if st.status == AGENT_DOWN:
            return st.pos, "down"
        if self.is_slowed(agent):
            self.report.slowdown_ticks += 1
            if (now - st.slow_anchor) % self.config.slowdown_factor != 0:
                return st.pos, "slow"
        if st.detour:
            return int(st.detour[0]), "detour"
        if st.plan_idx < self.num_steps:
            return self.plan_positions[agent][st.plan_idx + 1], "plan"
        if st.extra:
            return int(st.extra[0][0]), "extra"
        return st.pos, "rest"

    def _handle_blocked(self, agent: int, mode: str, target: int) -> Tuple[int, str]:
        """An intended move crosses a blocked edge: wait, or splice a detour."""
        st = self.states[agent]
        now = self.engine.now
        if st.blocked_since < 0:
            st.blocked_since = now
        self.report.blocked_waits += 1
        pure_motion = True
        if mode == "plan":
            s = st.plan_idx
            carrying = self.plan_carrying[agent]
            pure_motion = carrying[s] == carrying[s + 1] or s in st.suppressed
        elif mode == "extra":
            pure_motion = int(st.extra[0][1]) == st.carry
        if (
            self.config.recover
            and pure_motion
            and now - st.blocked_since >= self.config.reroute_patience
        ):
            consumes = mode if mode in ("plan", "extra") else st.detour_consumes
            if mode == "detour":
                # Re-route to the detour's own endpoint; _try_reroute replaces
                # the detour only on success, so a failed search leaves the
                # agent on its (blocked but still chained) old detour.
                target = int(st.detour[-1])
            if self._try_reroute(agent, target, consumes):
                next_v = int(st.detour[0])
                if not self.edge_is_blocked(st.pos, next_v):
                    return next_v, "detour"
        return st.pos, "blocked"

    def _resolve_moves(self, current: List[int], desired: List[int]) -> List[bool]:
        """Deterministic conflict resolution: who actually moves this tick.

        Stayers keep their vertex; a mover advances iff its target is vacated
        this tick and no lower-id agent claimed it.  Head-on swaps are denied
        (both wait); rotation cycles of three or more agents are granted as a
        unit — they are vertex-disjoint and legal under condition (2).
        """
        n = len(current)
        occupant = {v: i for i, v in enumerate(current)}
        granted: List[Optional[bool]] = [None] * n
        claimed: Dict[int, int] = {}
        for i in range(n):
            if desired[i] == current[i]:
                granted[i] = True
                claimed[current[i]] = i
        progress = True
        while progress:
            progress = False
            for i in range(n):
                if granted[i] is not None:
                    continue
                target = desired[i]
                owner = claimed.get(target)
                if owner is not None and owner != i:
                    granted[i] = False
                    progress = True
                    continue
                j = occupant.get(target)
                if j is None:
                    granted[i] = True
                    claimed[target] = i
                    progress = True
                    continue
                if desired[j] == current[i]:  # head-on swap: both wait
                    granted[i] = False
                    if granted[j] is None:
                        granted[j] = False
                    progress = True
                    continue
                if granted[j] is False:
                    granted[i] = False
                    progress = True
                elif granted[j] is True:
                    granted[i] = True
                    claimed[target] = i
                    progress = True
                # granted[j] is None: occupant undecided — wait for a later pass.
        for i in range(n):
            if granted[i] is not None:
                continue
            chain = [i]
            j = occupant.get(desired[i])
            while j is not None and granted[j] is None and j not in chain:
                chain.append(j)
                j = occupant.get(desired[j])
            if j == i and len(chain) > 2:
                for k in chain:
                    granted[k] = True
                    claimed[desired[k]] = k
            else:
                for k in chain:
                    if granted[k] is None:
                        granted[k] = False
        return [bool(g) for g in granted]

    def _apply_change(self, agent: int, decision_vertex: int, before: int, after: int) -> None:
        """Pickup / drop-off semantics, identical to the nominal executor."""
        now = self.engine.now
        component = self.owner_of.get(decision_vertex)
        if before == EMPTY_HANDED:
            shelf = self.shelves.get(component) if component is not None else None
            if shelf is not None:
                if not shelf.pick(after, now):
                    self.recorder.record_stockout(now, component, after)
            else:
                self.recorder.record_pickup(
                    now, -1 if component is None else component, after
                )
        elif after == EMPTY_HANDED:
            station = self.stations.get(component) if component is not None else None
            if station is not None:
                if not station.online and self.config.recover:
                    failover = self._failover_target(station)
                    if failover is not None:
                        self.recorder.record_recovery(now, "failover", failover.component_id)
                        self.report.failovers += 1
                        failover.handoff(before)
                        return
                station.handoff(before)
            else:
                self.recorder.record_handoff(
                    now, -1 if component is None else component, before
                )

    def _failover_target(self, down: StationProcess) -> Optional[StationProcess]:
        candidates = [
            s
            for cid, s in sorted(self.stations.items())
            if s.online and s is not down
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (s.queue_length, s.component_id))

    def _tick(self) -> None:
        now = self.engine.now
        states = self.states
        current = [st.pos for st in states]
        desired: List[int] = []
        modes: List[str] = []
        for agent, st in enumerate(states):
            target, mode = self._intent(agent)
            if target != st.pos and self.edge_is_blocked(st.pos, target):
                target, mode = self._handle_blocked(agent, mode, target)
            if mode != "blocked":
                # The blocked streak tracks *consecutive* edge-blocked ticks
                # only; any other stall reason (breakdown, conflict wait,
                # slow phase) re-arms the reroute patience window.
                st.blocked_since = -1
            desired.append(target)
            modes.append(mode)

        granted = self._resolve_moves(current, desired)

        for agent, st in enumerate(states):
            mode = modes[agent]
            if mode in ("down", "slow", "rest", "blocked"):
                continue
            if not granted[agent] and desired[agent] != st.pos:
                self.report.conflict_waits += 1
                continue
            src, dst = st.pos, desired[agent]
            before = st.carry
            if mode == "plan":
                # A load change only happens where the *plan* changes (and the
                # step was not transferred away).  Comparing the agent's actual
                # carry against the plan's profile would misfire on a donor
                # whose leg was reassigned: its actual carry stays empty while
                # the plan's profile is loaded between the suppressed pickup
                # and drop-off, and the first such step would spuriously
                # re-pick the product at an arbitrary vertex.
                s = st.plan_idx
                carrying = self.plan_carrying[agent]
                planned_before, planned_after = carrying[s], carrying[s + 1]
                if s in st.suppressed or planned_before == planned_after:
                    after = before
                else:
                    after = planned_after
            elif mode == "extra":
                after = int(st.extra[0][1])
            else:  # detour: pure motion
                after = before
            if src != dst:
                self.recorder.record_move(now, agent, src, dst)
                src_component = self.owner_of.get(src)
                dst_component = self.owner_of.get(dst)
                if (
                    src_component is not None
                    and dst_component is not None
                    and src_component != dst_component
                ):
                    self.recorder.record_transition(now, src_component, dst_component, after)
            if before != after:
                self._apply_change(agent, src, before, after)
            st.pos = dst
            st.carry = after
            if mode == "plan":
                st.plan_idx += 1
            elif mode == "extra":
                st.extra.popleft()
            else:  # detour
                st.detour.popleft()
                if not st.detour:
                    if st.detour_consumes == "plan":
                        st.plan_idx += 1
                    elif st.detour_consumes == "extra" and st.extra:
                        st.extra.popleft()
                    st.detour_consumes = ""

        positions = np.array([st.pos for st in states], dtype=np.int64)
        self.recorder.record_positions(now, positions)
        self.realized_positions[:, now] = positions
        self.realized_carrying[:, now] = [st.carry for st in states]
        if now + 1 < self.ticks:
            self.engine.schedule_at(now + 1, self._tick, PRIORITY_AGENTS)

    # -- artifacts -----------------------------------------------------------------------
    def realized_plan(self) -> Plan:
        """The motion that actually happened, as a validator-checkable plan."""
        return Plan(
            positions=self.realized_positions.copy(),
            carrying=self.realized_carrying.copy(),
            warehouse=self.plan.warehouse,
            metadata={**self.plan.metadata, "disrupted": 1.0},
        )


# ---------------------------------------------------------------------------
# the stochastic disruption process
# ---------------------------------------------------------------------------

class DisruptionProcess:
    """Injects disruptions as first-class events on the engine's heap.

    One event per tick (in the :data:`~repro.sim.engine.PRIORITY_DISRUPTIONS`
    band, before agents act) fires the scripted schedule, then draws each
    stochastic family in a fixed order from the engine's seeded generator, and
    finally accumulates the degradation accounting.  Repairs and outage ends
    are scheduled as separate future events in the same band.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: DisruptionConfig,
        recorder: TraceRecorder,
        executor: ResilientPlanExecutor,
        stations: Dict[ComponentId, StationProcess],
        report: ResilienceReport,
        until: int,
        book: Optional[OrderBook] = None,
        workload: Optional[Workload] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.recorder = recorder
        self.executor = executor
        self.stations = stations
        self.report = report
        self.until = until
        self.book = book
        self.edges = canonical_edges(executor.floorplan)
        self.num_agents = len(executor.states)
        self._station_down: Dict[ComponentId, int] = {}
        self._events_left = config.max_events
        self._scripted = sorted(config.schedule, key=lambda ev: ev.tick)
        self._scripted_next = 0
        self._mix: Optional[Tuple[Tuple[ProductId, ...], np.ndarray]] = None
        if workload is not None and book is not None and workload.total_units > 0:
            self._mix = product_mix_from_workload(workload)

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        if self.until >= 1:
            self.engine.every(1, self._tick, PRIORITY_DISRUPTIONS, start=1, until=self.until)

    def _tick(self) -> None:
        now = self.engine.now
        while (
            self._scripted_next < len(self._scripted)
            and self._scripted[self._scripted_next].tick <= now
        ):
            self._fire_scripted(self._scripted[self._scripted_next])
            self._scripted_next += 1
        rng = self.engine.rng
        if self.config.breakdown_rate > 0.0:
            for agent in range(self.num_agents):
                if self._events_left <= 0:
                    break
                if self.executor.is_up(agent) and rng.random() < self.config.breakdown_rate:
                    self._break_agent(agent, self.config.repair_time)
        if self.config.slowdown_rate > 0.0:
            for agent in range(self.num_agents):
                if self._events_left <= 0:
                    break
                if (
                    self.executor.is_up(agent)
                    and not self.executor.is_slowed(agent)
                    and rng.random() < self.config.slowdown_rate
                ):
                    self._slow_agent(agent, self.config.slowdown_duration)
        if (
            self.config.outage_rate > 0.0
            and self._events_left > 0
            and rng.random() < self.config.outage_rate
        ):
            online = [cid for cid, s in sorted(self.stations.items()) if s.online]
            if online:
                target = online[int(rng.integers(len(online)))]
                self._station_outage(target, self.config.outage_duration)
        if (
            self.config.block_rate > 0.0
            and self._events_left > 0
            and rng.random() < self.config.block_rate
        ):
            index = int(rng.integers(len(self.edges)))
            self._block_edge(index, self.config.block_duration)
        if (
            self.config.surge_rate > 0.0
            and self._events_left > 0
            and rng.random() < self.config.surge_rate
        ):
            self._surge(self.config.surge_orders, scripted=False)
        # -- degradation accounting (after this tick's injections) ----------------
        self.report.agent_downtime += sum(
            1 for agent in range(self.num_agents) if not self.executor.is_up(agent)
        )
        self.report.station_downtime += len(self._station_down)

    # -- scripted dispatch -----------------------------------------------------------
    def _fire_scripted(self, event: ScriptedDisruption) -> None:
        if event.kind == "breakdown":
            agent = self._pick_agent(event.target, require_up=True)
            if agent is not None:
                self._break_agent(agent, event.duration or self.config.repair_time, scripted=True)
        elif event.kind == "slowdown":
            agent = self._pick_agent(event.target, require_up=True)
            if agent is not None:
                self._slow_agent(
                    agent, event.duration or self.config.slowdown_duration, scripted=True
                )
        elif event.kind == "outage":
            online = [cid for cid, s in sorted(self.stations.items()) if s.online]
            target = event.target if event.target in online else (online[0] if online else None)
            if target is not None:
                self._station_outage(
                    target, event.duration or self.config.outage_duration, scripted=True
                )
        elif event.kind == "block":
            index = event.target if 0 <= event.target < len(self.edges) else 0
            if self.edges:
                self._block_edge(
                    index, event.duration or self.config.block_duration, scripted=True
                )
        else:  # surge
            self._surge(event.magnitude or self.config.surge_orders, scripted=True)

    def _pick_agent(self, target: int, require_up: bool) -> Optional[int]:
        if 0 <= target < self.num_agents and (
            not require_up or self.executor.is_up(target)
        ):
            return target
        for agent in range(self.num_agents):
            if not require_up or self.executor.is_up(agent):
                return agent
        return None

    # -- injections ------------------------------------------------------------------
    def _spend(self, scripted: bool) -> None:
        if not scripted:
            self._events_left -= 1

    def _break_agent(self, agent: int, repair_ticks: int, scripted: bool = False) -> None:
        now = self.engine.now
        self._spend(scripted)
        self.executor.set_down(agent)
        self.recorder.record_disruption(now, "breakdown", agent)
        self.report.breakdowns += 1
        if self.config.recover:
            self.executor.reassign_from(agent)
        self.engine.schedule(repair_ticks, lambda a=agent: self._repair(a), PRIORITY_DISRUPTIONS)

    def _repair(self, agent: int) -> None:
        if self.executor.is_up(agent):  # pragma: no cover - defensive
            return
        downtime = self.executor.set_up(agent)
        self.recorder.record_recovery(self.engine.now, "repair", agent, downtime)
        self.report.repairs += 1
        self.report.recovery_latency_total += downtime

    def _slow_agent(self, agent: int, duration: int, scripted: bool = False) -> None:
        now = self.engine.now
        self._spend(scripted)
        self.executor.set_slow(agent, now + duration)
        self.recorder.record_disruption(now, "slowdown", agent)
        self.report.slowdowns += 1

    def _station_outage(
        self, component: ComponentId, duration: int, scripted: bool = False
    ) -> None:
        now = self.engine.now
        self._spend(scripted)
        station = self.stations[component]
        station.go_offline()
        self._station_down[component] = now
        self.recorder.record_disruption(now, "outage", component)
        self.report.outages += 1
        self.engine.schedule(
            duration, lambda c=component: self._station_restore(c), PRIORITY_DISRUPTIONS
        )

    def _station_restore(self, component: ComponentId) -> None:
        self._station_down.pop(component, None)
        self.stations[component].go_online()

    def _block_edge(self, index: int, duration: int, scripted: bool = False) -> None:
        now = self.engine.now
        self._spend(scripted)
        u, v = self.edges[index]
        self.executor.block_edge(u, v, now + duration)
        self.recorder.record_disruption(now, "block", index)
        self.report.blocks += 1

    def _surge(self, orders: int, scripted: bool) -> None:
        now = self.engine.now
        self._spend(scripted)
        self.recorder.record_disruption(now, "surge", orders)
        self.report.surges += 1
        if self._mix is None or self.book is None:
            return
        products, probabilities = self._mix
        choices = self.engine.rng.choice(len(products), size=orders, p=probabilities)
        for index in choices:
            self.book.add_order(products[int(index)], now)
        self.report.surged_orders += orders


def nominal_deliveries_by(plan: Plan, ticks: int) -> int:
    """Units the plan's verbatim replay delivers strictly before ``ticks``.

    This is the retention baseline: with instantaneous station service the
    nominal twin serves exactly these units, so
    ``units_served / nominal_deliveries_by(...)`` is the throughput retention
    (an optimistic bound under stochastic service models).
    """
    return sum(1 for _, t, _ in plan.deliveries() if t < ticks)


def severity_ladder(base: DisruptionConfig, rates: Sequence[float]) -> List[DisruptionConfig]:
    """The base config with every non-zero rate scaled to each given level.

    Used by the metamorphic tests: a ladder of increasingly severe variants of
    one disruption profile whose measured throughput must never beat nominal.
    """
    active = [
        f"{kind}_rate" for kind in DISRUPTION_KINDS if getattr(base, f"{kind}_rate") > 0.0
    ] or ["breakdown_rate"]
    return [replace(base, **{name: float(rate) for name in active}) for rate in rates]
