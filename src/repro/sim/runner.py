"""Run orchestration: one call from a realized plan to a :class:`SimulationReport`.

:func:`simulate_plan` builds the full process graph — order stream → order
book, agent executors → shelf/station processes → trace recorder, runtime
contract monitor — on one seeded engine, runs it for the plan's horizon, and
condenses the outcome.  :func:`simulate_solution` is the pipeline-level entry
point that pulls everything it needs out of a
:class:`~repro.core.pipeline.WSPSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.flow_synthesis import AgentFlowSet
from ..obs import span, span_to_dict, stage
from ..traffic.system import TrafficSystem
from ..warehouse.plan import Plan
from ..warehouse.workload import Workload
from .agents import PlanExecutor
from .disruptions import (
    DisruptionConfig,
    DisruptionProcess,
    ResilienceReport,
    ResilientPlanExecutor,
    nominal_deliveries_by,
)
from .engine import SimulationEngine
from .monitors import ContractMonitor, MonitorReport, monitor_from_synthesis
from .routing import RoutingConfig, RoutingReport, route_plan
from .stations import (
    ServiceTimeModel,
    build_shelf_processes,
    build_station_processes,
)
from .telemetry import SimulationTrace, TraceRecorder
from .workload_gen import DeterministicOrderStream, OrderBook, PoissonOrderStream


class SimulationSetupError(ValueError):
    """Raised when a simulation is configured inconsistently."""


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one digital-twin run.

    The default configuration is the *deterministic baseline*: instantaneous
    station service and all orders present at tick 0 — the run then reproduces
    the plan's own delivery profile exactly, which is what the acceptance
    comparison against the synthesized flow value uses.
    """

    seed: int = 0
    #: Station packing-time distribution (per unit).
    service_time: ServiceTimeModel = field(
        default_factory=lambda: ServiceTimeModel.deterministic(0)
    )
    #: Servers per station-queue component; ``None`` = one per station vertex.
    servers_per_station: Optional[int] = None
    #: Poisson order arrivals at this rate (orders/tick); ``None`` = all
    #: orders at tick 0 (deterministic workload semantics).
    arrival_rate: Optional[float] = None
    #: Keep the full ordered event log (the determinism witness).
    record_events: bool = True
    #: Stop after this many ticks (``None`` = the executed plan's horizon).
    max_ticks: Optional[int] = None
    #: Grid-routed execution (``None`` = abstract plan replay); see
    #: :class:`~repro.sim.routing.RoutingConfig`.
    routing: Optional[RoutingConfig] = None
    #: Stochastic failure injection + online recovery (``None`` or an
    #: all-zero-rate config = nominal execution); see
    #: :class:`~repro.sim.disruptions.DisruptionConfig`.
    disruptions: Optional[DisruptionConfig] = None

    @property
    def disruptions_active(self) -> bool:
        """True when the run takes the resilient (failure-injected) path."""
        return self.disruptions is not None and self.disruptions.is_active

    def describe(self) -> str:
        arrivals = (
            "all-at-t0" if self.arrival_rate is None else f"poisson({self.arrival_rate:g}/tick)"
        )
        routing = (
            "abstract"
            if self.routing is None or not self.routing.is_grid_routed
            else self.routing.describe()
        )
        disruptions = (
            self.disruptions.describe() if self.disruptions_active else "none"
        )
        return (
            f"seed={self.seed}, service={self.service_time.describe()}, "
            f"arrivals={arrivals}, routing={routing}, disruptions={disruptions}"
        )


@dataclass
class SimulationReport:
    """Everything one simulation run produced."""

    trace: SimulationTrace
    config: SimulationConfig
    monitor: Optional[MonitorReport]
    num_agents: int
    ticks: int
    #: Units/tick promised by the synthesized flow set (deliveries_per_period / tc).
    synthesized_throughput: float
    #: Tick horizon of the *abstract* plan the promise was made over.  When a
    #: run is cut short (``max_ticks``, a stalled router), ``ticks`` shrinks
    #: but the promise basis does not — ratios are normalized over
    #: ``max(ticks, plan_ticks)`` so a truncated run can never look better
    #: than a complete one.  0 (legacy constructions) falls back to ``ticks``.
    plan_ticks: int = 0
    #: Grid-routing telemetry (``None`` for abstract plan replay).
    routing: Optional[RoutingReport] = None
    #: The motion that actually happened under disruptions, as a
    #: validator-checkable plan (``None`` for nominal runs, whose motion is
    #: the executed plan itself).
    realized_plan: Optional[Plan] = None
    #: Wall-clock cost of the run, timed by the ``sim.simulate`` stage
    #: (reporting only — never used by the sim).
    seconds: float = 0.0

    # -- headline numbers ---------------------------------------------------------
    @property
    def realized_throughput(self) -> float:
        return self.trace.realized_throughput()

    @property
    def truncated(self) -> bool:
        """True when the run covered fewer ticks than the plan promised, or
        the router gave up before serving every waypoint."""
        if self.plan_ticks and self.ticks < self.plan_ticks:
            return True
        return self.routing is not None and self.routing.truncated

    @property
    def normalized_throughput(self) -> float:
        """Units served per tick over the *promise* basis.

        ``realized_throughput`` divides by the ticks the run actually covered,
        which overstates the rate of a truncated run (serving 30 of 40 units
        in the first 170 of 400 promised ticks is not a 2.4x overdelivery).
        Normalizing over ``max(ticks, plan_ticks)`` makes the rate comparable
        with the synthesized promise regardless of where the run stopped.
        """
        basis = max(self.ticks, self.plan_ticks) - 1
        return self.units_served / max(1, basis)

    @property
    def throughput_ratio(self) -> float:
        """Normalized realized / synthesized throughput (1.0 = the twin
        matches the promise).  Bounded by ~1 + slack: a truncated run is
        measured against the full promised horizon, never its shorter one."""
        if self.synthesized_throughput <= 0:
            return 0.0
        return self.normalized_throughput / self.synthesized_throughput

    @property
    def units_served(self) -> int:
        return self.trace.units_served

    @property
    def resilience(self) -> Optional[ResilienceReport]:
        """Resilience telemetry of a disrupted run (``None`` when nominal)."""
        return self.trace.resilience

    @property
    def throughput_retention(self) -> float:
        """Served units over the nominal delivery count (1.0 when nominal)."""
        if self.trace.resilience is None:
            return 1.0
        return self.trace.resilience.throughput_retention

    @property
    def contracts_ok(self) -> bool:
        return self.monitor.ok if self.monitor is not None else True

    @property
    def num_violations(self) -> int:
        return self.monitor.num_violations if self.monitor is not None else 0

    def summary(self) -> str:
        lines = [
            f"simulation: {self.ticks} ticks, {self.num_agents} agents "
            f"({self.config.describe()})",
            f"  units served:        {self.units_served} "
            f"(handed off {self.trace.units_handed_off}, picked "
            f"{self.trace.units_picked}+{self.trace.units_preloaded} preloaded, "
            f"backlog {self.trace.station_backlog})",
            f"  realized throughput: {self.realized_throughput:.4f} units/tick",
            f"  synthesized flow:    {self.synthesized_throughput:.4f} units/tick "
            f"(ratio {self.throughput_ratio:.3f})",
        ]
        if self.truncated:
            lines.append(
                f"  TRUNCATED:           {self.ticks}/{max(self.ticks, self.plan_ticks)} "
                f"promised ticks simulated; ratio normalized over the plan basis"
            )
        lines += [
            f"  orders:              {self.trace.orders_served}/{self.trace.orders_created} "
            f"fulfilled, {self.trace.orders_pending} pending",
        ]
        latency = self.trace.mean_order_latency()
        if latency is not None:
            lines.append(
                f"  order latency:       mean {latency:.1f}, "
                f"p95 {self.trace.p95_order_latency():.1f} ticks"
            )
        if self.trace.queue_samples:
            lines.append(
                f"  station queues:      mean {self.trace.mean_queue_length():.2f}, "
                f"max {self.trace.max_queue_length()}"
            )
        if self.trace.stockouts:
            lines.append(f"  stockouts:           {self.trace.stockouts}")
        if self.routing is not None:
            lines.append(f"  {self.routing.summary()}")
        if self.trace.resilience is not None:
            lines.append(f"  {self.trace.resilience.summary()}")
        if self.monitor is not None:
            lines.append(f"  {self.monitor.summary()}")
            for violation in self.monitor.violations[:10]:
                lines.append(f"    {violation}")
        return "\n".join(lines)


def simulate_plan(
    plan: Plan,
    system: TrafficSystem,
    flow_set: Optional[AgentFlowSet] = None,
    workload: Optional[Workload] = None,
    synthesis=None,
    config: Optional[SimulationConfig] = None,
) -> SimulationReport:
    """Execute a realized plan through the discrete-event engine.

    ``flow_set`` provides the cycle time and the synthesized throughput to
    compare against (falling back to the plan's metadata); ``synthesis`` (a
    :class:`~repro.core.flow_synthesis.FlowSynthesisResult`) enables contract
    monitoring; ``workload`` drives the order stream and the end-to-end
    service check.
    """
    config = config or SimulationConfig()
    timings: Dict[str, float] = {}
    with stage(
        timings, "simulation", "sim.simulate", seed=config.seed, sim_config=config.describe()
    ) as sim_span:
        report = _simulate_traced(
            plan, system, flow_set, workload, synthesis, config, sim_span
        )
    report.seconds = timings["simulation"]
    if sim_span.enabled:
        # Attach the run's own span tree to the trace; serialization only
        # emits it when present, so untraced runs keep the frozen schema.
        report.trace.obs = {
            "schema": "obs-trace",
            "version": 1,
            "spans": [span_to_dict(sim_span)],
        }
    return report


def _simulate_traced(
    plan: Plan,
    system: TrafficSystem,
    flow_set: Optional[AgentFlowSet],
    workload: Optional[Workload],
    synthesis,
    config: SimulationConfig,
    sim_span,
) -> SimulationReport:
    if flow_set is not None:
        cycle_time = flow_set.cycle_time
        synthesized = flow_set.deliveries_per_period() / max(1, cycle_time)
    else:
        cycle_time = int(plan.metadata.get("cycle_time", 0)) or max(1, plan.horizon - 1)
        synthesized = 0.0

    # Grid-routed mode: replace the plan's abstract motion with MAPF paths
    # before anything else sees it — executors, monitors and telemetry then
    # operate on the congestion-subjected motion.
    routing_report: Optional[RoutingReport] = None
    exec_plan = plan
    if config.routing is not None and config.routing.is_grid_routed:
        with span("sim.route", router=config.routing.describe()) as route_span:
            exec_plan, routing_report = route_plan(plan, config.routing, system=system)
            route_span.add("replans", routing_report.replans)
            route_span.add("expansions", routing_report.expansions)
            route_span.add("conflicts", routing_report.conflicts)

    ticks = (
        exec_plan.horizon
        if config.max_ticks is None
        else min(config.max_ticks, exec_plan.horizon)
    )
    if ticks < 2:
        raise SimulationSetupError(f"a plan with {ticks} tick(s) has nothing to simulate")

    setup_timer = sim_span.timer("setup")
    setup_timer.__enter__()
    engine = SimulationEngine(config.seed)
    recorder = TraceRecorder(
        num_vertices=exec_plan.warehouse.floorplan.num_vertices,
        num_agents=exec_plan.num_agents,
        cycle_time=cycle_time,
        ticks=ticks,
        seed=config.seed,
        record_events=config.record_events,
    )

    book = OrderBook(recorder)
    if workload is not None:
        if config.arrival_rate is None:
            DeterministicOrderStream(workload).bind(engine, book)
        else:
            PoissonOrderStream(
                config.arrival_rate, workload=workload, until=ticks - 1
            ).bind(engine, book)

    stations = build_station_processes(
        engine,
        system,
        recorder,
        service_model=config.service_time,
        servers_per_station=config.servers_per_station,
        order_book=book if workload is not None else None,
    )
    shelves = build_shelf_processes(system, recorder)
    # The resilient (failure-injected) path only engages when a disruption can
    # actually occur; otherwise the verbatim replay runs untouched, keeping
    # zero-disruption traces byte-identical to the pre-disruption schema.
    resilience: Optional[ResilienceReport] = None
    resilient_executor: Optional[ResilientPlanExecutor] = None
    if config.disruptions_active:
        resilience = ResilienceReport()
        resilient_executor = ResilientPlanExecutor(
            engine,
            exec_plan,
            system,
            recorder,
            stations,
            shelves,
            config.disruptions,
            resilience,
            max_ticks=ticks,
        )
        resilient_executor.start()
        DisruptionProcess(
            engine,
            config.disruptions,
            recorder,
            resilient_executor,
            stations,
            resilience,
            until=ticks - 1,
            book=book if workload is not None else None,
            workload=workload,
        ).start()
    else:
        executor = PlanExecutor(
            engine, exec_plan, system, recorder, stations, shelves, max_ticks=ticks
        )
        executor.start()

    monitor: Optional[ContractMonitor] = None
    if synthesis is not None:
        monitor = monitor_from_synthesis(system, synthesis)
        monitor.attach(engine, recorder, cycle_time)

    recorder.track_queues(stations)
    setup_timer.__exit__(None, None, None)

    engine.run(until=ticks - 1)

    finalize_timer = sim_span.timer("finalize")
    finalize_timer.__enter__()
    metadata = {
        "cycle_time": float(cycle_time),
        "synthesized_throughput": float(synthesized),
    }
    agent_paths = None
    if routing_report is not None:
        agent_paths = [
            tuple(int(v) for v in exec_plan.positions[agent, :ticks])
            for agent in range(exec_plan.num_agents)
        ]
        metadata.update(
            {
                "routing_completed": float(routing_report.completed),
                "routing_truncated": float(routing_report.truncated),
                "routing_inflation": float(routing_report.inflation),
                "routing_replans": float(routing_report.replans),
                "routing_conflicts": float(routing_report.conflicts),
                "routing_max_edge_load": float(routing_report.max_edge_load),
            }
        )
    realized_plan: Optional[Plan] = None
    if resilient_executor is not None and resilience is not None:
        realized_plan = resilient_executor.realized_plan()
        # The realized (post-disruption) motion supersedes the committed one.
        agent_paths = [
            tuple(int(v) for v in realized_plan.positions[agent])
            for agent in range(realized_plan.num_agents)
        ]
        resilience.units_served = recorder.units_served
        resilience.nominal_units = nominal_deliveries_by(exec_plan, ticks)
        resilience.dropped_orders = recorder.orders_created - recorder.orders_served
        deadline = config.disruptions.order_deadline if config.disruptions else 0
        if deadline > 0:
            resilience.late_orders = sum(
                1 for latency in recorder.order_latencies if latency > deadline
            )
        if monitor is not None and monitor.live_violations:
            resilience.breach_windows = len(monitor.live_violations)
            resilience.first_breach_tick = min(
                violation.tick
                for violation in monitor.live_violations
                if violation.tick is not None
            )
    trace = recorder.build(
        metadata=metadata, agent_paths=agent_paths, resilience=resilience
    )
    monitor_report: Optional[MonitorReport] = None
    if monitor is not None:
        monitor_report = monitor.evaluate(trace, workload=workload)
    elif workload is not None:
        # No compiled contracts available — still run the end-to-end check.
        monitor_report = ContractMonitor(system=system).evaluate(trace, workload=workload)
    finalize_timer.__exit__(None, None, None)

    sim_span.set_attr("ticks", ticks)
    sim_span.set_attr("agents", exec_plan.num_agents)
    sim_span.add("units_served", trace.units_served)
    if resilience is not None:
        sim_span.add("disruptions", resilience.num_disruptions)
        sim_span.add("recoveries", resilience.num_recoveries)

    return SimulationReport(
        trace=trace,
        config=config,
        monitor=monitor_report,
        num_agents=exec_plan.num_agents,
        ticks=ticks,
        synthesized_throughput=synthesized,
        plan_ticks=plan.horizon,
        routing=routing_report,
        realized_plan=realized_plan,
    )


def simulate_solution(solution, config: Optional[SimulationConfig] = None) -> SimulationReport:
    """Simulate the realized plan of a successful :class:`WSPSolution`."""
    plan = getattr(solution, "plan", None)
    if plan is None:
        raise SimulationSetupError(
            "the solution has no realized plan to simulate "
            f"({getattr(solution, 'message', '') or 'solve failed'})"
        )
    return simulate_plan(
        plan=plan,
        system=solution.traffic_system,
        flow_set=solution.flow_set,
        workload=solution.instance.workload,
        synthesis=solution.synthesis,
        config=config,
    )
