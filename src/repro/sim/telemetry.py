"""Trace recording: everything the simulation observes, in one artifact.

The :class:`TraceRecorder` is the single sink every process writes to; at the
end of a run it freezes into a :class:`SimulationTrace` — per-vertex visit
counts (the congestion heatmap's raw data), per-cycle-period flow counts (the
quantities the contract monitor binds to the synthesized flow variables),
per-tick station queue lengths, order latencies, and an ordered event log.

The event log is the determinism witness: two runs of the same configuration
and seed must produce *identical* logs, which the test-suite asserts.  Flow
conservation is checkable from the aggregates alone: every order is created
then served or still pending, every picked unit is handed off or still being
carried, every hand-off is served or still queued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..traffic.system import ComponentId
from ..warehouse.products import ProductId

#: Event-log record kinds.
EV_MOVE = "move"
EV_TRANSITION = "transition"
EV_PICKUP = "pickup"
EV_HANDOFF = "handoff"
EV_SERVED = "served"
EV_ORDER = "order"
EV_FULFILLED = "fulfilled"
EV_STOCKOUT = "stockout"
EV_DISRUPTION = "disruption"
EV_RECOVERY = "recovery"

TraceEvent = Tuple  # (kind, tick, *details) — plain tuples, cheap and comparable


@dataclass
class SimulationTrace:
    """The frozen observation record of one simulation run."""

    ticks: int
    num_agents: int
    cycle_time: int
    seed: int
    #: Number of *complete* cycle periods observed.
    periods: int
    #: Per-vertex visit counts (agent-ticks spent on each vertex).
    visits: np.ndarray
    #: Per-period flow counts keyed like the synthesized flow variables:
    #: ``transitions[(i, j, k)][p]`` = agents moving Ci -> Cj carrying ρk in period p
    #: (k = 0 means empty-handed).
    transitions: Dict[Tuple[ComponentId, ComponentId, ProductId], np.ndarray]
    pickups: Dict[Tuple[ComponentId, ProductId], np.ndarray]
    handoffs: Dict[Tuple[ComponentId, ProductId], np.ndarray]
    served: Dict[Tuple[ComponentId, ProductId], np.ndarray]
    #: Per-tick queue length of every station-queue component.
    queue_samples: Dict[ComponentId, np.ndarray]
    #: Fulfillment latency (ticks) of every served order, in service order.
    order_latencies: List[int]
    orders_created: int
    orders_served: int
    units_picked: int
    #: Units carried by agents already at tick 0 (picked before the run began).
    units_preloaded: int
    units_handed_off: int
    units_served: int
    stockouts: int
    #: Ordered event log (determinism witness); None when recording is off.
    events: Optional[List[TraceEvent]] = None
    #: Realized per-agent vertex paths (grid-routed and disrupted runs only;
    #: the abstract mode replays the plan verbatim, so archiving the plan
    #: suffices there).
    agent_paths: Optional[List[Tuple[int, ...]]] = None
    #: Resilience telemetry of a disrupted run (:class:`~repro.sim.disruptions.
    #: ResilienceReport`); ``None`` for nominal runs, whose serialized traces
    #: must stay byte-identical to the pre-disruption schema.
    resilience: Optional["ResilienceReport"] = None  # noqa: F821 - forward ref
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Serialized observability span tree of the run (``repro.obs``);
    #: ``None`` unless tracing was enabled — nominal traces must stay
    #: byte-identical to the pre-observability schema.
    obs: Optional[Dict] = None

    # -- aggregate queries -------------------------------------------------------
    @property
    def orders_pending(self) -> int:
        return self.orders_created - self.orders_served

    @property
    def station_backlog(self) -> int:
        """Units handed over but not yet served when the run ended."""
        return self.units_handed_off - self.units_served

    @property
    def units_in_transit(self) -> int:
        """Units picked up (or preloaded, or stockout phantoms) not yet handed over."""
        return (
            self.units_picked
            + self.units_preloaded
            + self.stockouts
            - self.units_handed_off
        )

    def realized_throughput(self) -> float:
        """Served units per tick over the whole run."""
        return self.units_served / max(1, self.ticks - 1)

    def served_per_product(self) -> Dict[ProductId, int]:
        totals: Dict[ProductId, int] = {}
        for (_, product), counts in self.served.items():
            totals[product] = totals.get(product, 0) + int(counts.sum())
        return totals

    def mean_queue_length(self) -> float:
        if not self.queue_samples:
            return 0.0
        return float(np.mean([s.mean() for s in self.queue_samples.values()]))

    def max_queue_length(self) -> int:
        if not self.queue_samples:
            return 0
        return int(max(s.max() for s in self.queue_samples.values()))

    def mean_order_latency(self) -> Optional[float]:
        if not self.order_latencies:
            return None
        return float(np.mean(self.order_latencies))

    def p95_order_latency(self) -> Optional[float]:
        if not self.order_latencies:
            return None
        return float(np.percentile(self.order_latencies, 95))

    # -- invariants ---------------------------------------------------------------
    def conservation_report(self) -> List[str]:
        """Human-readable flow-conservation violations (empty = conserved).

        The telemetry is conserved by construction; a non-empty report means a
        process wrote inconsistent records and is a simulator bug.
        """
        problems: List[str] = []
        if self.orders_served > self.orders_created:
            problems.append(
                f"served {self.orders_served} orders but only {self.orders_created} were created"
            )
        if self.units_served > self.units_handed_off:
            problems.append(
                f"served {self.units_served} units but only {self.units_handed_off} were handed off"
            )
        # A stockout is a unit the plan picks but the twin's inventory lacks;
        # the executor replays the plan's carry anyway, so the phantom unit
        # still flows downstream and counts as available here.
        available = self.units_picked + self.units_preloaded + self.stockouts
        if self.units_handed_off > available:
            problems.append(
                f"handed off {self.units_handed_off} units but only {available} were "
                f"picked ({self.units_picked}), preloaded ({self.units_preloaded}) "
                f"or stockout phantoms ({self.stockouts})"
            )
        recorded_served = int(sum(c.sum() for c in self.served.values()))
        if recorded_served > self.units_served:
            problems.append(
                f"per-period served counts ({recorded_served}) exceed the served total "
                f"({self.units_served})"
            )
        return problems

    def summary(self) -> str:
        return (
            f"trace: {self.ticks} ticks, {self.num_agents} agents, {self.periods} periods, "
            f"{self.units_served} units served ({self.station_backlog} queued), "
            f"{self.orders_served}/{self.orders_created} orders fulfilled"
        )


class TraceRecorder:
    """Mutable sink the simulation processes write observations to."""

    def __init__(
        self,
        num_vertices: int,
        num_agents: int,
        cycle_time: int,
        ticks: int,
        seed: int = 0,
        record_events: bool = True,
    ) -> None:
        if cycle_time <= 0:
            raise ValueError("cycle_time must be positive")
        self.num_vertices = num_vertices
        self.num_agents = num_agents
        self.cycle_time = cycle_time
        self.ticks = ticks
        self.seed = seed
        #: Complete periods that fit into the run's ticks - 1 move steps.
        self.periods = max(1, (ticks - 1) // cycle_time) if ticks > 1 else 1
        self.visits = np.zeros(num_vertices, dtype=np.int64)
        #: Per-period counts as lists of Python ints (one element bumped at a
        #: time, which numpy scalars make slow); :meth:`build` makes the arrays.
        self._transitions: Dict[Tuple[int, int, int], List[int]] = {}
        self._pickups: Dict[Tuple[int, int], List[int]] = {}
        self._handoffs: Dict[Tuple[int, int], List[int]] = {}
        self._served: Dict[Tuple[int, int], List[int]] = {}
        #: Agents that entered each component, per complete period (the live
        #: capacity check's query), tallied as transitions are recorded.
        self._entries: Dict[int, Dict[ComponentId, int]] = {}
        #: Queue length of each tracked station component after the last
        #: change of every tick that changed it.
        self._queues: Dict[int, Dict[int, int]] = {}
        self.order_latencies: List[int] = []
        self.orders_created = 0
        self.orders_served = 0
        self.units_picked = 0
        self.units_preloaded = 0
        self.units_handed_off = 0
        self.units_served = 0
        self.stockouts = 0
        self.events: Optional[List[TraceEvent]] = [] if record_events else None

    # -- helpers -----------------------------------------------------------------
    def _period_of(self, tick: int) -> Optional[int]:
        """Complete-period index of a tick's move step (None outside the window)."""
        period = (tick - 1) // self.cycle_time if tick > 0 else 0
        if 0 <= period < self.periods:
            return period
        return None

    def _bump(self, table: Dict, key, tick: int) -> Optional[int]:
        """Count one ``key`` event in its tick's period; returns the period."""
        period = self._period_of(tick)
        if period is None:
            return None
        counts = table.get(key)
        if counts is None:
            counts = table[key] = [0] * self.periods
        counts[period] += 1
        return period

    def _log(self, *record) -> None:
        if self.events is not None:
            self.events.append(record)

    # -- recording API -------------------------------------------------------------
    def record_positions(self, tick: int, vertices: np.ndarray) -> None:
        """Agent positions from ``tick`` on; feeds the congestion (visit-count) map.

        ``vertices`` is one tick's column or a whole ``(agents, ticks)`` block
        of the position matrix; every entry counts one agent-tick.
        """
        np.add.at(self.visits, vertices, 1)

    def record_move(self, tick: int, agent: int, src: int, dst: int) -> None:
        self._log(EV_MOVE, tick, agent, src, dst)

    def record_transition(
        self, tick: int, source: ComponentId, target: ComponentId, product: ProductId
    ) -> None:
        """An agent crossed from component ``source`` to ``target`` carrying ``product``."""
        period = self._bump(self._transitions, (source, target, product), tick)
        if period is not None:
            entered = self._entries.setdefault(period, {})
            entered[target] = entered.get(target, 0) + 1
        self._log(EV_TRANSITION, tick, source, target, product)

    def record_pickup(self, tick: int, component: ComponentId, product: ProductId) -> None:
        self.units_picked += 1
        self._bump(self._pickups, (component, product), tick)
        self._log(EV_PICKUP, tick, component, product)

    def record_preload(self, agent: int, product: ProductId) -> None:
        """An agent starts the run already carrying ``product`` (picked pre-run)."""
        self.units_preloaded += 1
        self._log(EV_PICKUP, 0, -1, product, agent)

    def record_handoff(self, tick: int, component: ComponentId, product: ProductId) -> None:
        self.units_handed_off += 1
        self._bump(self._handoffs, (component, product), tick)
        self._log(EV_HANDOFF, tick, component, product)

    def record_served(self, tick: int, component: ComponentId, product: ProductId) -> None:
        self.units_served += 1
        self._bump(self._served, (component, product), tick)
        self._log(EV_SERVED, tick, component, product)

    def record_stockout(self, tick: int, component: ComponentId, product: ProductId) -> None:
        self.stockouts += 1
        self._log(EV_STOCKOUT, tick, component, product)

    def record_order_created(self, tick: int, order_id: int, product: ProductId) -> None:
        self.orders_created += 1
        self._log(EV_ORDER, tick, order_id, product)

    def record_order_fulfilled(
        self, tick: int, order_id: int, product: ProductId, latency: int
    ) -> None:
        self.orders_served += 1
        self.order_latencies.append(latency)
        self._log(EV_FULFILLED, tick, order_id, product, latency)

    def record_disruption(self, tick: int, kind: str, subject: int) -> None:
        """A disruption was injected (``subject`` = agent/component/edge index)."""
        self._log(EV_DISRUPTION, tick, kind, subject)
        from ..obs import emit_event, get_registry

        get_registry().counter(
            "repro_disruptions_total", "Disruptions injected by kind", kind=kind
        ).inc()
        emit_event(
            "disruption.onset",
            "sim",
            level="warning",
            message=f"{kind} struck subject {subject}",
            disruption=kind,
            subject=subject,
            tick=tick,
        )

    def record_recovery(self, tick: int, kind: str, subject: int, latency: int = 0) -> None:
        """A recovery action resolved a disruption after ``latency`` ticks."""
        self._log(EV_RECOVERY, tick, kind, subject, latency)
        from ..obs import emit_event, get_registry

        get_registry().counter(
            "repro_recoveries_total", "Disruption recoveries by kind", kind=kind
        ).inc()
        emit_event(
            "disruption.recovered",
            "sim",
            message=f"{kind} on subject {subject} recovered after {latency} tick(s)",
            disruption=kind,
            subject=subject,
            tick=tick,
            latency=latency,
        )

    def transitions_into(self, component: ComponentId, period: int) -> int:
        """Agents that entered ``component`` during one complete period (live query)."""
        return self.entries_per_component(period).get(component, 0)

    def entries_per_component(self, period: int) -> Dict[ComponentId, int]:
        """Agents that entered each component during one complete period
        (live query; components nobody entered are absent)."""
        return dict(self._entries.get(period, {}))

    def track_queues(self, components) -> None:
        """Keep a per-tick queue-length series for these station components.

        Each series reads 0 until the component's first report.
        """
        for component in components:
            self._queues.setdefault(component, {})

    def record_queue_length(self, tick: int, component: ComponentId, length: int) -> None:
        """A tracked station's queue length changed to ``length`` at ``tick``.

        Stations report after every change, so the last report of a tick is
        the length the tick ends with; untracked components are ignored.
        """
        changes = self._queues.get(component)
        if changes is not None and 0 <= tick < self.ticks:
            changes[tick] = length

    def _queue_series(self, changes: Dict[int, int]) -> np.ndarray:
        """Per-tick queue lengths, each tick's last report carried forward."""
        steps = np.zeros(self.ticks, dtype=np.int64)
        if changes:
            ticks = np.fromiter(changes, dtype=np.int64, count=len(changes))
            lengths = np.fromiter(changes.values(), dtype=np.int64, count=len(changes))
            steps[ticks] = np.diff(lengths, prepend=0)
        return np.cumsum(steps)

    # -- freezing -----------------------------------------------------------------
    def build(
        self,
        metadata: Optional[Dict[str, float]] = None,
        agent_paths: Optional[List[Tuple[int, ...]]] = None,
        resilience=None,
    ) -> SimulationTrace:
        return SimulationTrace(
            ticks=self.ticks,
            num_agents=self.num_agents,
            cycle_time=self.cycle_time,
            seed=self.seed,
            periods=self.periods,
            visits=self.visits,
            transitions=_arrays(self._transitions),
            pickups=_arrays(self._pickups),
            handoffs=_arrays(self._handoffs),
            served=_arrays(self._served),
            queue_samples={
                component: self._queue_series(changes)
                for component, changes in self._queues.items()
            },
            order_latencies=list(self.order_latencies),
            orders_created=self.orders_created,
            orders_served=self.orders_served,
            units_picked=self.units_picked,
            units_preloaded=self.units_preloaded,
            units_handed_off=self.units_handed_off,
            units_served=self.units_served,
            stockouts=self.stockouts,
            events=self.events,
            agent_paths=None if agent_paths is None else list(agent_paths),
            resilience=resilience,
            metadata=dict(metadata or {}),
        )


def _arrays(table: Dict[Tuple, List[int]]) -> Dict[Tuple, np.ndarray]:
    """Per-period count lists as int64 arrays, in the table's key order."""
    return {key: np.array(counts, dtype=np.int64) for key, counts in table.items()}
